"""Batch drivers: disorder Monte-Carlo, figure-style report generation,
run configuration, and deterministic file writers.

Determinism contract: identical seed and configuration produce byte-identical
output files within this implementation. All randomness flows through PCG64
generators keyed by SeedSequence(entropy=seed, spawn_key=(tags...)) so cases,
groups, and resamples own independent substreams regardless of execution
order; JSON floats print with repr (shortest round-trip form).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .loops import (
    DIRECTIONS,
    EvolutionReport,
    LoopSchedule,
    bell_eigenstate,
    evolve,
    loop1_schedule,
    loop2_schedule,
    optimize_schedule,
)
from .metrics import BELL_LABELS, bell_index, bell_state, classify, density_matrix, fidelity_pure
from .spectrum import find_ep, riemann_surface, surface_csv
from .tomo import TomoConfig, bootstrap_error, counts_csv, reconstruct, simulate_counts
from .walk import WalkParams

GRANULARITIES = ("per_step", "per_loop")
INPUT_KINDS = ("eigenstate", "bell")


@dataclass(frozen=True)
class DisorderConfig:
    strength: float = 0.025
    groups: int = 10
    seed: int = 1234
    granularity: str = "per_step"

    def __post_init__(self):
        # a +-pi offset already spans every distinct theta1 and phi
        if not 0 <= self.strength <= math.pi:
            raise ConfigError(f"disorder strength must lie in [0, pi], got {self.strength}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.groups < 1:
            raise ConfigError(f"disorder needs >= 1 group, got {self.groups}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}")


@dataclass(frozen=True)
class CaseStats:
    input_label: str
    direction: str
    reference_label: str
    base_fidelity: float
    mean_fidelity: float
    sd_fidelity: float
    unchanged_fraction: float

    @property
    def drop(self) -> float:
        return self.base_fidelity - self.mean_fidelity


@dataclass(frozen=True)
class DisorderSummary:
    cases: tuple[CaseStats, ...]

    @property
    def unchanged_fraction(self) -> float:
        return float(np.mean([c.unchanged_fraction for c in self.cases]))

    @property
    def max_drop(self) -> float:
        return max(c.drop for c in self.cases)


def _perturbed(schedule: LoopSchedule, rng: np.random.Generator, cfg: DisorderConfig) -> LoopSchedule:
    """Schedule with (theta1, phi) offsets drawn once per loop or once per step."""
    draws = 1 if cfg.granularity == "per_loop" else schedule.n_steps
    offsets = rng.uniform(-cfg.strength, cfg.strength, size=(draws, 2))
    offsets = np.broadcast_to(offsets, (schedule.n_steps, 2)).tolist()
    steps = tuple(
        replace(p, theta1=p.theta1 + dth, phi=p.phi + dph)
        for p, (dth, dph) in zip(schedule.steps, offsets)
    )
    return LoopSchedule(steps=steps, direction=schedule.direction, label=schedule.label)


def case_input(label, kind: str, p: WalkParams) -> np.ndarray:
    if kind == "eigenstate":
        return bell_eigenstate(label, p)
    return bell_state(label)


def disorder_run(
    schedules: list[LoopSchedule],
    inputs,
    cfg: DisorderConfig,
    engine: str = "simplified",
    input_kind: str = "eigenstate",
) -> DisorderSummary:
    """Monte-Carlo perturbation study over a list of schedules.

    Cases enumerate (schedule, input) pairs schedule-major. Each group
    perturbs theta1 and phi by independent uniform draws in
    (-strength, strength) at the configured granularity, evolves the case,
    and scores fidelity to the unperturbed run's classified output. Case i,
    group g draws from substream (seed, spawn_key=(i, g)), so results do not
    depend on the order in which cases run.
    """
    if input_kind not in INPUT_KINDS:
        raise ConfigError(f"input_kind must be one of {INPUT_KINDS}, got {input_kind!r}")
    if not schedules:
        raise ConfigError("disorder_run needs at least one schedule")
    cases = [(sched, label) for sched in schedules for label in inputs]
    stats = []
    for case_idx, (sched, label) in enumerate(cases):
        psi0 = case_input(label, input_kind, sched.steps[0])
        base_rep = evolve(sched, psi0, engine=engine, record_steps=False)
        ref_idx = bell_index(base_rep.classified_output)
        base_f = base_rep.fidelities[ref_idx - 1]
        fids, unchanged = [], 0
        for g in range(cfg.groups):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(case_idx, g)))
            )
            rep = evolve(_perturbed(sched, rng, cfg), psi0, engine=engine, record_steps=False)
            fids.append(rep.fidelities[ref_idx - 1])
            if rep.classified_output == base_rep.classified_output:
                unchanged += 1
        stats.append(CaseStats(
            input_label=BELL_LABELS[bell_index(label) - 1],
            direction=sched.direction,
            reference_label=base_rep.classified_output,
            base_fidelity=float(base_f),
            mean_fidelity=float(np.mean(fids)),
            sd_fidelity=float(np.std(fids)),
            unchanged_fraction=unchanged / cfg.groups,
        ))
    return DisorderSummary(cases=tuple(stats))


@dataclass(frozen=True)
class RunConfig:
    loop: int = 1
    n_steps: int = 100
    directions: tuple[str, ...] = ("cw", "ccw")
    engine: str = "full"
    inputs: tuple[str, ...] = BELL_LABELS
    input_kind: str = "eigenstate"
    counts_per_basis: int = 10000
    psd_projection: bool = False
    resamples: int = 100
    strength: float = 0.025
    groups: int = 10
    granularity: str = "per_step"
    seed: int = 1234
    record_steps: bool = False

    def __post_init__(self):
        for name in ("loop", "n_steps", "counts_per_basis", "resamples", "groups", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("record_steps", "psd_projection"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.strength, bool) or not isinstance(self.strength, (int, float)):
            raise ConfigError(f"strength must be a number, got {self.strength!r}")
        if self.loop not in (1, 2):
            raise ConfigError(f"loop must be 1 or 2, got {self.loop!r}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        for d in self.directions:
            if d not in DIRECTIONS:
                raise ConfigError(f"unknown direction {d!r}")
        if self.engine not in ("full", "simplified"):
            raise ConfigError(f"engine must be full or simplified, got {self.engine!r}")
        for label in self.inputs:
            if label not in BELL_LABELS:
                raise ConfigError(f"unknown input label {label!r}")
        if self.input_kind not in INPUT_KINDS:
            raise ConfigError(f"input_kind must be one of {INPUT_KINDS}, got {self.input_kind!r}")
        if self.counts_per_basis < 1:
            raise ConfigError(f"counts_per_basis must be >= 1, got {self.counts_per_basis}")
        if self.resamples < 2:
            raise ConfigError(f"resamples must be >= 2, got {self.resamples}")
        DisorderConfig(strength=self.strength, groups=self.groups, seed=self.seed, granularity=self.granularity)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("directions", "inputs"):
            if key in coerced:
                if not isinstance(coerced[key], (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {coerced[key]!r}")
                coerced[key] = tuple(coerced[key])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def schedule(self, direction: str) -> LoopSchedule:
        maker = loop1_schedule if self.loop == 1 else loop2_schedule
        return maker(self.n_steps, direction)

    def tomo_config(self, seed: int | None = None) -> TomoConfig:
        return TomoConfig(
            counts_per_basis=self.counts_per_basis,
            seed=self.seed if seed is None else seed,
            psd_projection=self.psd_projection,
        )

    def disorder_config(self) -> DisorderConfig:
        return DisorderConfig(
            strength=self.strength, groups=self.groups, seed=self.seed, granularity=self.granularity
        )


def evolve_cases(cfg: RunConfig) -> list[EvolutionReport]:
    """Evolve every input on every direction of `cfg`, direction-major."""
    reports = []
    for direction in cfg.directions:
        sched = cfg.schedule(direction)
        for label in cfg.inputs:
            psi0 = case_input(label, cfg.input_kind, sched.steps[0])
            reports.append(
                evolve(sched, psi0, engine=cfg.engine, input_label=label,
                       record_steps=cfg.record_steps)
            )
    return reports


def disorder_study(cfg: RunConfig) -> DisorderSummary:
    """Disorder study of every input on every direction of `cfg`."""
    scheds = [cfg.schedule(d) for d in cfg.directions]
    return disorder_run(scheds, cfg.inputs, cfg.disorder_config(),
                        engine=cfg.engine, input_kind=cfg.input_kind)


def tomography_summary(counts, cfg: TomoConfig, resamples: int) -> dict:
    """Reconstructed density, its Bell fidelities and their bootstrap spread."""
    rho = reconstruct(counts, cfg)
    sds = bootstrap_error(counts, cfg, resamples)
    return {
        "density": interleave(rho),
        "fidelities": classify_density_fidelities(rho),
        "bootstrap_sd": {label: float(s) for label, s in zip(BELL_LABELS, sds)},
    }


def interleave(values: np.ndarray) -> list[float]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    out = []
    for z in flat:
        out.append(float(z.real))
        out.append(float(z.imag))
    return out


def report_dict(report: EvolutionReport) -> dict:
    """Evolution report as a JSON-ready dict with fixed key order (`steps` if recorded)."""
    out = {
        "input": report.input_label,
        "direction": report.direction,
        "N": report.n_steps,
        "loop": report.loop_label,
        "engine": report.engine,
        "output_state": interleave(report.output_state),
        "density": interleave(report.output_density),
        "fidelities": {
            label: float(f) for label, f in zip(BELL_LABELS, report.fidelities)
        },
        "classified": report.classified_output,
    }
    if report.per_step is not None:
        out["steps"] = [
            {
                "n": rec.index,
                "weights": [float(w) for w in rec.weights],
                "weights_raw": [float(w) for w in rec.weights_raw],
                "log_magnitude": float(rec.log_magnitude),
            }
            for rec in report.per_step
        ]
    return out


def dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def report_csv(reports) -> str:
    lines = ["input,direction,N,loop,engine,classified,f_zeta1,f_zeta2,f_zeta3,f_zeta4"]
    for r in reports:
        fid = ",".join(f"{f:.12g}" for f in r.fidelities)
        lines.append(
            f"{r.input_label},{r.direction},{r.n_steps},{r.loop_label},{r.engine},{r.classified_output},{fid}"
        )
    return "\n".join(lines) + "\n"


def _derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tags).generate_state(1, np.uint64)[0])


def ep_json(ep) -> str:
    return dump_json({"phi": ep.phi, "theta1": ep.theta1, "residual": ep.residual})


def schedule_json(result) -> str:
    return dump_json({
        "increments": list(result.increments),
        "objective": result.objective,
        "baseline_objective": result.baseline_objective,
    })


def disorder_json(summary: DisorderSummary) -> str:
    """Per-case disorder statistics plus the study-wide aggregates."""
    return dump_json({
        "cases": [
            {
                "direction": c.direction,
                "input": c.input_label,
                "reference": c.reference_label,
                "base_fidelity": c.base_fidelity,
                "mean_fidelity": c.mean_fidelity,
                "sd_fidelity": c.sd_fidelity,
                "unchanged_fraction": c.unchanged_fraction,
            }
            for c in summary.cases
        ],
        "unchanged_fraction": summary.unchanged_fraction,
        "max_drop": summary.max_drop,
    })


def disorder_csv(summary: DisorderSummary) -> str:
    """Case table `direction,input,mean_on,sd_on,mean_off,sd_off`.

    The off columns are the unperturbed run: its fidelity and a zero spread.
    """
    lines = ["direction,input,mean_on,sd_on,mean_off,sd_off"]
    for c in summary.cases:
        lines.append(
            f"{c.direction},{c.input_label},{c.mean_fidelity:.12g},{c.sd_fidelity:.12g},"
            f"{c.base_fidelity:.12g},0"
        )
    return "\n".join(lines) + "\n"


def _fig1b(out_dir: str, cfg: RunConfig) -> list[str]:
    samples = riemann_surface((-0.3, 0.3, 61), (-0.8, 0.0, 61))
    ep = find_ep()
    return [
        write_text(os.path.join(out_dir, "fig1b_surface.csv"), surface_csv(samples)),
        write_text(os.path.join(out_dir, "fig1b_ep.json"), ep_json(ep)),
    ]


def _input_report(label, schedule: LoopSchedule, input_kind: str) -> dict:
    psi = case_input(label, input_kind, schedule.steps[0])
    cls = classify(psi)
    return {
        "input": BELL_LABELS[bell_index(label) - 1],
        "direction": "none",
        "N": 0,
        "loop": schedule.label,
        "engine": "input",
        "output_state": interleave(psi),
        "density": interleave(density_matrix(psi)),
        "fidelities": {lab: float(f) for lab, f in zip(BELL_LABELS, cls.fidelities)},
        "classified": cls.label,
    }


def _fig2(out_dir: str, cfg: RunConfig) -> list[str]:
    paths = []
    sched0 = loop1_schedule(100, "cw")
    for label in BELL_LABELS:
        paths.append(
            write_text(
                os.path.join(out_dir, f"fig2_input_{label}.json"),
                dump_json(_input_report(label, sched0, cfg.input_kind)),
            )
        )
    cases = replace(cfg, loop=1, n_steps=100, directions=DIRECTIONS, engine="full", inputs=BELL_LABELS)
    for rep in evolve_cases(cases):
        paths.append(
            write_text(
                os.path.join(out_dir, f"fig2_{rep.direction}_{rep.input_label}.json"),
                dump_json(report_dict(rep)),
            )
        )
    return paths


def _fig4(out_dir: str, cfg: RunConfig, optimized: bool = False) -> list[str]:
    paths = []
    if optimized:
        result = optimize_schedule(8)
        schedules = result.schedules()
        paths.append(write_text(os.path.join(out_dir, "fig4_schedule.json"), schedule_json(result)))
    else:
        schedules = {d: loop1_schedule(8, d) for d in DIRECTIONS}
    cases = [(d, label) for d in DIRECTIONS for label in BELL_LABELS]
    for case_idx, (direction, label) in enumerate(cases):
        sched = schedules[direction]
        psi0 = case_input(label, cfg.input_kind, sched.steps[0])
        rep = evolve(sched, psi0, engine="simplified", input_label=label, record_steps=cfg.record_steps)
        tomo_cfg = cfg.tomo_config(seed=_derived_seed(cfg.seed, case_idx))
        counts = simulate_counts(rep.output_density, tomo_cfg)
        tomo = tomography_summary(counts, tomo_cfg, cfg.resamples)
        body = report_dict(rep)
        body["reconstructed_density"] = tomo["density"]
        body["reconstructed_fidelities"] = tomo["fidelities"]
        body["bootstrap_sd"] = tomo["bootstrap_sd"]
        paths.append(
            write_text(
                os.path.join(out_dir, f"fig4_{direction}_{label}.json"), dump_json(body)
            )
        )
        paths.append(
            write_text(
                os.path.join(out_dir, f"fig4_{direction}_{label}_counts.csv"), counts_csv(counts)
            )
        )
    return paths


def classify_density_fidelities(rho: np.ndarray) -> dict:
    return {
        label: float(fidelity_pure(bell_state(j), rho))
        for j, label in enumerate(BELL_LABELS, start=1)
    }


def _fig5(out_dir: str, cfg: RunConfig) -> list[str]:
    paths = []
    for n_steps in (8, 100):
        summary = disorder_study(replace(cfg, loop=1, n_steps=n_steps, directions=DIRECTIONS,
                                         engine="simplified", inputs=BELL_LABELS))
        paths.append(
            write_text(os.path.join(out_dir, f"fig5_disorder_N{n_steps}.csv"), disorder_csv(summary))
        )
    return paths


FIGURES = ("fig1b", "fig2", "fig4", "fig5")


def reproduce_figure(which: str, out_dir: str, cfg: RunConfig | None = None, optimized: bool = False) -> list[str]:
    """Generate the report files behind one figure-style dataset.

    fig1b: quasienergy surface grid + EP location. fig2: N=100 full-engine
    densities for 4 inputs and 8 evolution cases. fig4: N=8 simplified-engine
    cases with simulated tomography (equal spacing, or the optimizer's
    schedule when optimized=True). fig5: disorder summary tables at N=8 and
    N=100.
    """
    if which not in FIGURES:
        raise ConfigError(f"figure must be one of {FIGURES}, got {which!r}")
    cfg = cfg or RunConfig()
    os.makedirs(out_dir, exist_ok=True)
    if which == "fig1b":
        return _fig1b(out_dir, cfg)
    if which == "fig2":
        return _fig2(out_dir, cfg)
    if which == "fig4":
        return _fig4(out_dir, cfg, optimized=optimized)
    return _fig5(out_dir, cfg)
