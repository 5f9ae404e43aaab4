"""Batch drivers: disorder Monte-Carlo, figure-style report generation,
run configuration, every output encoder and the one file writer (write_texts).

Determinism contract: identical seed and configuration produce byte-identical
output files within this implementation. All randomness flows through PCG64
generators keyed by SeedSequence(entropy=seed, spawn_key=(tags...)) so cases,
groups, and resamples own independent substreams regardless of execution
order. streams.spawn_words computes the seed words of a whole family of such
substreams in one array pass and streams.substreams hands them to PCG64, so
each generator starts in bitwise the state SeedSequence gives it; a counts
table's key-less stream is SeedSequence(seed) itself. JSON floats print with
repr (shortest round-trip form).
"""
from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IllConditioned
from .loops import (
    DIRECTIONS,
    ENGINES,
    LOOPS,
    EvolutionReport,
    LoopSchedule,
    bell_eigenstate,
    bell_eigenstates,
    evolve_batch,
    evolve_many,
    loop1_schedule,
    optimize_schedule,
)
from .metrics import BELL_LABELS, BELL_ROWS, bell_index, bell_state, classify, density_matrix, nearest_bell
from .spectrum import find_ep, riemann_surface
from .tomo import CountsTable, TomoConfig, check_resamples, simulate_counts, tomography

GRANULARITIES = ("per_step", "per_loop")
INPUT_KINDS = ("eigenstate", "bell")


class _RunFields(NamedTuple):
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


class RunConfig(_RunFields):
    """A run's settings, checked when constructed, copies made by _replace included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("loop", "n_steps", "counts_per_basis", "resamples", "groups", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("record_steps", "psd_projection"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.strength, bool) or not isinstance(self.strength, (int, float)):
            raise ConfigError(f"strength must be a number, got {self.strength!r}")
        if self.loop not in LOOPS:
            raise ConfigError(f"loop must be {' or '.join(map(str, LOOPS))}, got {self.loop!r}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.directions or not self.inputs:
            raise ConfigError("directions and inputs each need at least one entry")
        for d in self.directions:
            if d not in DIRECTIONS:
                raise ConfigError(f"unknown direction {d!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be {' or '.join(ENGINES)}, got {self.engine!r}")
        for label in self.inputs:
            if label not in BELL_LABELS:
                raise ConfigError(f"unknown input label {label!r}")
        for name in ("directions", "inputs"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} must not repeat an entry, got {list(entries)}")
        if self.input_kind not in INPUT_KINDS:
            raise ConfigError(f"input_kind must be one of {INPUT_KINDS}, got {self.input_kind!r}")
        check_resamples(self.resamples)
        self.tomo_config()  # counts_per_basis and seed bounds live in TomoConfig
        # a +-pi offset already spans every distinct theta1 and phi
        if not 0 <= self.strength <= math.pi:
            raise ConfigError(f"disorder strength must lie in [0, pi], got {self.strength}")
        if self.groups < 1:
            raise ConfigError(f"disorder needs >= 1 group, got {self.groups}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}")
        return self

    def _replace(self, **changes) -> RunConfig:
        """A copy with `changes`, checked: NamedTuple's own _replace would skip __new__."""
        return RunConfig(**self._asdict() | changes)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls._fields)
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
        return LOOPS[self.loop](self.n_steps, direction)

    def tomo_config(self, seed: int | None = None) -> TomoConfig:
        return TomoConfig(
            counts_per_basis=self.counts_per_basis,
            seed=self.seed if seed is None else seed,
            psd_projection=self.psd_projection,
        )


class CaseStats(NamedTuple):
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


class DisorderSummary(NamedTuple):
    cases: tuple[CaseStats, ...]

    @property
    def unchanged_fraction(self) -> float:
        return float(np.mean([c.unchanged_fraction for c in self.cases]))

    @property
    def max_drop(self) -> float:
        return max(c.drop for c in self.cases)


def case_inputs(labels, kind: str, starts) -> np.ndarray:
    """Each label's input state at each start point p, start-major, as rows: bell_state(label), or for kind
    "eigenstate" bell_eigenstate(label, p), bitwise, with one eigenbasis per distinct start."""
    bases = {p: bell_eigenstates(p) if kind == "eigenstate" else BELL_ROWS for p in dict.fromkeys(starts)}
    rows = [bell_index(label) - 1 for label in labels]
    return np.concatenate([bases[p][rows] for p in starts])


def disorder_run(cfg: RunConfig) -> DisorderSummary:
    """Monte-Carlo perturbation study of every input on every direction of `cfg`.

    Cases enumerate (direction, input) pairs direction-major. Each group perturbs theta1 and phi by
    independent uniform draws in (-strength, strength), once per loop or once per step as `granularity`
    says, and scores fidelity to the unperturbed run's classified output. Case i, group g draws from
    substream (seed, spawn_key=(i, g)), so results do not depend on the order in which cases run; one
    streams.substreams call seeds them all. All runs, each case's unperturbed one first, go through one
    evolve_batch and one nearest_bell call, and each statistic is one reduction over the (cases, groups) rows.
    """
    from .streams import substreams  # loaded on first use: only the commands that draw read it

    schedules = [cfg.schedule(d) for d in cfg.directions]
    cases = [(sched, label) for sched in schedules for label in cfg.inputs]
    per_case = cfg.groups + 1  # the unperturbed run, then one row per group
    draws = 1 if cfg.granularity == "per_loop" else cfg.n_steps
    offsets = np.empty((len(cases) * cfg.groups, draws, 2))
    for block, stream in zip(offsets, substreams(cfg.seed, list(np.ndindex(len(cases), cfg.groups)))):
        stream.random(out=block)
    offsets *= 2 * cfg.strength  # uniform(-s, s) is -s + (s - -s) * random(), bit for bit
    offsets -= cfg.strength  # in place: a fresh array this size costs more than the arithmetic
    runs = np.empty((len(schedules), len(cfg.inputs), per_case, cfg.n_steps, 2))  # (theta1, phi) of every step
    runs[...] = np.array([[sched.knobs[0], sched.knobs[2]] for sched in schedules]).mT[:, None, None]
    runs[:, :, 1:] += offsets.reshape(len(schedules), len(cfg.inputs), cfg.groups, draws, 2)
    theta1, phi = np.moveaxis(runs.reshape(-1, cfg.n_steps, 2), -1, 0)
    _, theta2, _, gamma, k = schedules[0].knobs  # the loop's own, which both its directions share
    psi0 = np.repeat(case_inputs(cfg.inputs, cfg.input_kind, [s.start for s in schedules]), per_case, axis=0)
    fids, index, _ = nearest_bell(evolve_batch((theta1, theta2, phi, gamma, k), psi0, cfg.engine))
    index = index.reshape(len(cases), per_case)
    ref = index[:, 0]
    f_ref = fids.reshape(len(cases), per_case, 4)[np.arange(len(cases)), :, ref]  # (cases, runs)
    dev = f_ref[:, 1:] - f_ref[:, :1]  # deviations keep mean == base and sd == 0 exact for identical runs
    stats = zip(cases, ref.tolist(), f_ref[:, 0].tolist(), (f_ref[:, 0] + dev.mean(axis=1)).tolist(),
                dev.std(axis=1).tolist(), ((index[:, 1:] == ref[:, None]).sum(axis=1) / cfg.groups).tolist())
    return DisorderSummary(cases=tuple(CaseStats(label, sched.direction, BELL_LABELS[j], *values)
                                       for (sched, label), j, *values in stats))


def evolve_cases(cfg: RunConfig) -> list[EvolutionReport]:
    """Evolve every input on every direction of `cfg`, direction-major, in one evolve_many call."""
    schedules = [cfg.schedule(d) for d in cfg.directions]
    inputs = case_inputs(cfg.inputs, cfg.input_kind, [sched.start for sched in schedules])
    return evolve_many(schedules, inputs, cfg.inputs, cfg.engine, cfg.record_steps)


def tomography_summaries(tables, cfgs, resamples: int) -> list[dict]:
    """Reconstructed density, Bell fidelities and their bootstrap spread of every table, in one tomography pass."""
    return [
        {
            "density": interleave(rho),
            "fidelities": dict(zip(BELL_LABELS, fids.tolist())),
            "bootstrap_sd": dict(zip(BELL_LABELS, sds.tolist())),
        }
        for rho, fids, sds in zip(*tomography(tables, cfgs, resamples))
    ]


def interleave(values: np.ndarray) -> list[float]:
    """Real and imaginary parts of every entry, in turn."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float).tolist()


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
        "fidelities": dict(zip(BELL_LABELS, report.fidelities)),
        "classified": report.classified_output,
    }
    if report.per_step is not None:
        rec = report.per_step
        out["steps"] = [
            {"n": n, "weights": weights, "weights_raw": raw, "log_magnitude": logmag}
            for n, (weights, raw, logmag) in enumerate(zip(rec.weights.tolist(), rec.weights_raw.tolist(),
                                                           rec.log_magnitude.tolist()))
        ]
    return out


def dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> str:
    """Write `text` to `path`, making the directories of the path as given, as mkdir -p does (the kernel resolves
    a .. after them); a path that cannot be written is a ConfigError."""
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def check_out_dir(out_dir: str) -> None:
    """Refuse an out_dir that is a file, or lies under one, with a ConfigError. It reads the file system only,
    so a command checks its out_dir before it does any work."""
    head = out_dir
    while head and not os.path.exists(head):  # up to the first part of out_dir that exists, or the working directory
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(f"cannot write {out_dir}: {head} is not a directory")


def write_texts(out_dir: str, texts) -> list[str]:
    """Write each (name, text) pair to out_dir/name through write_text and return the paths. A target that is
    an existing directory is a ConfigError raised before the first write, so it leaves no file behind."""
    paths = [os.path.join(out_dir, name) for name, _ in texts]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
    return [write_text(path, text) for path, (_, text) in zip(paths, texts)]


def csv_text(header: str, rows) -> str:
    """The one CSV rule: a float cell prints as %.12g, any other as str(), and every line ends in \\n."""
    lines = [header, *(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def report_csv(reports) -> str:
    return csv_text("input,direction,N,loop,engine,classified,f_zeta1,f_zeta2,f_zeta3,f_zeta4",
                    ((r.input_label, r.direction, r.n_steps, r.loop_label, r.engine, r.classified_output,
                      *r.fidelities) for r in reports))


def surface_csv(grid: np.ndarray) -> str:
    """riemann_surface's grid, one row per point."""
    return csv_text("phi,theta1,re_lp,im_lp,re_lm,im_lm", grid.tolist())


def counts_csv(counts: CountsTable) -> str:
    return csv_text("basis_a,basis_b,count", counts.records)


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
    return csv_text("direction,input,mean_on,sd_on,mean_off,sd_off",
                    ((c.direction, c.input_label, c.mean_fidelity, c.sd_fidelity, c.base_fidelity, 0)
                     for c in summary.cases))


def _fig1b() -> list[tuple[str, str]]:
    return [("fig1b_surface.csv", surface_csv(riemann_surface())), ("fig1b_ep.json", ep_json(find_ep()))]


def _input_report(label, schedule: LoopSchedule, input_kind: str) -> dict:
    psi = bell_eigenstate(label, schedule.start) if input_kind == "eigenstate" else bell_state(label)
    cls = classify(psi)
    return report_dict(EvolutionReport(
        input_label=BELL_LABELS[bell_index(label) - 1], direction="none", n_steps=0,
        loop_label=schedule.label, engine="input", output_state=psi, output_density=density_matrix(psi),
        fidelities=cls.fidelities, classified_output=cls.label, log_magnitude=0.0, per_step=None))


def _fig2(cfg: RunConfig) -> list[tuple[str, str]]:
    sched0 = loop1_schedule(100, "cw")
    texts = [(f"fig2_input_{label}.json", dump_json(_input_report(label, sched0, cfg.input_kind)))
             for label in BELL_LABELS]
    cases = cfg._replace(loop=1, n_steps=100, directions=DIRECTIONS, engine="full", inputs=BELL_LABELS)
    return texts + [(f"fig2_{rep.direction}_{rep.input_label}.json", dump_json(report_dict(rep)))
                    for rep in evolve_cases(cases)]


def _fig4(cfg: RunConfig, optimized: bool) -> list[tuple[str, str]]:
    from .streams import spawn_words  # loaded on first use, as in disorder_run

    result = optimize_schedule(8) if optimized else None
    schedules = [result.schedule(d) if optimized else loop1_schedule(8, d) for d in DIRECTIONS]
    texts = [("fig4_schedule.json", schedule_json(result))] if optimized else []
    inputs = case_inputs(BELL_LABELS, cfg.input_kind, [sched.start for sched in schedules])
    reports = evolve_many(schedules, inputs, BELL_LABELS, "simplified", cfg.record_steps)
    # case i's tomography seed is the first word of SeedSequence(entropy=seed, spawn_key=(i,))
    case_seeds = spawn_words(cfg.seed, np.arange(len(reports))[:, None], 1)[:, 0]
    tomo_cfgs = [cfg.tomo_config(seed=int(case_seed)) for case_seed in case_seeds]
    tables = [simulate_counts(rep.output_density, tomo_cfg) for rep, tomo_cfg in zip(reports, tomo_cfgs)]
    try:
        summaries = tomography_summaries(tables, tomo_cfgs, cfg.resamples)
    except IllConditioned as exc:
        failed = reports[exc.row]
        raise IllConditioned(f"fig4 case {failed.direction} {failed.input_label}, {exc}") from exc
    for rep, counts, tomo in zip(reports, tables, summaries):
        body = report_dict(rep) | {"reconstructed_density": tomo["density"],
                                   "reconstructed_fidelities": tomo["fidelities"],
                                   "bootstrap_sd": tomo["bootstrap_sd"]}
        stem = f"fig4_{rep.direction}_{rep.input_label}"
        texts += [(stem + ".json", dump_json(body)), (stem + "_counts.csv", counts_csv(counts))]
    return texts


def _fig5(cfg: RunConfig) -> list[tuple[str, str]]:
    return [(f"fig5_disorder_N{n_steps}.csv",
             disorder_csv(disorder_run(cfg._replace(loop=1, n_steps=n_steps, directions=DIRECTIONS,
                                                    engine="simplified", inputs=BELL_LABELS))))
            for n_steps in (8, 100)]


# each figure's RunConfig fields read (the figure fixes every other setting) and its builder of (name, text) pairs
FIGURES = {
    "fig1b": ((), lambda cfg, optimized: _fig1b()),
    "fig2": (("input_kind", "record_steps"), lambda cfg, optimized: _fig2(cfg)),
    "fig4": (("input_kind", "record_steps", "seed", "counts_per_basis", "psd_projection", "resamples"), _fig4),
    "fig5": (("input_kind", "seed", "strength", "groups", "granularity"), lambda cfg, optimized: _fig5(cfg)),
}


def reproduce_figure(which: str, out_dir: str, cfg: RunConfig | None = None, optimized: bool = False) -> list[str]:
    """Generate the report files behind one figure-style dataset.

    fig1b: quasienergy surface grid + EP location. fig2: N=100 full-engine
    densities for 4 inputs and 8 evolution cases. fig4: N=8 simplified-engine
    cases with simulated tomography (equal spacing, or the optimizer's
    schedule when optimized=True). fig5: disorder summary tables at N=8 and
    N=100. A figure that fails writes no file, nor its directory: its texts
    are all built first. An out_dir that is a file, or lies under one, is
    refused (check_out_dir) before the figure is built.
    """
    if which not in FIGURES:
        raise ConfigError(f"figure must be one of {tuple(FIGURES)}, got {which!r}")
    if optimized and which != "fig4":
        raise ConfigError(f"optimized applies only to fig4, not {which}")
    check_out_dir(out_dir)
    return write_texts(out_dir, FIGURES[which][1](cfg or RunConfig(), optimized))
