"""The four workloads: seed-generated argv for `eploop.cli.main` and the
check of each unit call's output.

Every workload is a closed loop with one caller: the next unit call is sent
when the previous one returns. `argv(seed, index, out_dir)` is a pure function
of its arguments, so the program sees only generated inputs and the same seed
gives the same calls. Checks import `eploop` lazily, because the worker times
that import as part of set-up.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Criterion-5 bands for loop-1 eigenstate inputs: clockwise outputs sit within
# 0.005 of these fidelities, counter-clockwise ones above 0.95.
CW_BAND_CENTERS = {1: 0.983, 2: 0.964, 3: 0.964, 4: 0.983}
CW_BAND_HALF_WIDTH = 0.005
CCW_FIDELITY_FLOOR = 0.95

# Equal-spacing N = 8 objective, pinned in the optimizer's own tests.
SCHEDULE_BASELINE_OBJECTIVE = 0.5408925599
# Disorder seeds 1000-1029 all keep unchanged_fraction >= 0.9875 at the
# default strength, so the 0.95 floor leaves room for floating-point change
# but not for a wrong engine.
DISORDER_SEEDS = range(1000, 1030)
DISORDER_UNCHANGED_FLOOR = 0.95
# Shot noise at 10,000 counts per basis moves the classified state's root
# fidelity by about 0.006 (one standard deviation); 0.04 is over six of them.
TOMO_FIDELITY_TOLERANCE = 0.04


class CheckFailed(Exception):
    """A unit call's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rng(name: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or on the platform.
    return random.Random(f"{name}:{seed}:{index}")


@dataclass(frozen=True)
class Workload:
    name: str
    n_steps: int  # steps per evolution, from the generated argv
    quality_calls: int  # objective_mean averages the first this many calls
    traced_calls: int  # unit calls in the traced phase
    argv: Callable[[int, int, str], list[str]]  # (seed, call index, output dir)
    check: Callable[[list[str], str, str], float]  # returns the call's quality score
    # A short call on the same command path, made cold and then warm in a fresh
    # process: the difference is the first call's lazy set-up.
    setup_args: tuple[str, ...]
    repeat_first_call: bool = False  # rerun call 0 at the end, compare files

    def setup_argv(self, out_dir: str) -> list[str]:
        return [out_dir if a == "{out}" else a for a in self.setup_args]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


# chirality_n100 -----------------------------------------------------------

def _chirality_argv(seed: int, index: int, out_dir: str) -> list[str]:
    rng = _rng("chirality_n100", seed, index)
    loop = rng.choice(("1", "2"))
    kind = rng.choice(("eigenstate", "bell"))
    return ["evolve", "--loop", loop, "--engine", "full", "--n-steps", "100",
            "--record-steps", "--input-kind", kind, "--format", "json"]


def _chirality_check(argv: list[str], stdout: str, out_dir: str) -> float:
    from eploop.loops import CHIRAL_TARGETS
    from eploop.metrics import BELL_LABELS, bell_index

    loop = int(_flag(argv, "--loop"))
    kind = _flag(argv, "--input-kind")
    reports = json.loads(stdout)
    _require(len(reports) == 8, f"expected 8 reports, got {len(reports)}")
    by_case = {(r["direction"], r["input"]): r for r in reports}
    for r in reports:
        _require(len(r["steps"]) == 100, "per-step records missing")
        j = bell_index(r["input"])
        if loop == 1:
            target = BELL_LABELS[CHIRAL_TARGETS[(r["direction"], j)] - 1]
            _require(r["classified"] == target,
                     f"loop 1 {r['direction']} {r['input']} -> {r['classified']}, want {target}")
            if kind == "eigenstate":
                f = r["fidelities"][target]
                if r["direction"] == "cw":
                    _require(abs(f - CW_BAND_CENTERS[j]) <= CW_BAND_HALF_WIDTH,
                             f"cw {r['input']} fidelity {f} outside criterion-5 band")
                else:
                    _require(f > CCW_FIDELITY_FLOOR, f"ccw {r['input']} fidelity {f} <= 0.95")
        else:
            other = by_case[("ccw", r["input"])]
            _require(r["classified"] == other["classified"],
                     f"loop 2 output depends on direction for {r['input']}")
    return sum(r["fidelities"][r["classified"]] for r in reports) / len(reports)


# disorder_n100 ------------------------------------------------------------

def _disorder_argv(seed: int, index: int, out_dir: str) -> list[str]:
    s = _rng("disorder_n100", seed, index).choice(DISORDER_SEEDS)
    return ["disorder", "--n-steps", "100", "--groups", "10", "--seed", str(s),
            "--format", "json"]


def _disorder_check(argv: list[str], stdout: str, out_dir: str) -> float:
    body = json.loads(stdout)
    _require(len(body["cases"]) == 8, f"expected 8 cases, got {len(body['cases'])}")
    frac = body["unchanged_fraction"]
    _require(frac >= DISORDER_UNCHANGED_FLOOR, f"unchanged_fraction {frac} < 0.95")
    return frac


# schedule_n8 --------------------------------------------------------------

def _schedule_argv(seed: int, index: int, out_dir: str) -> list[str]:
    s = _rng("schedule_n8", seed, index).randrange(2**31)
    return ["optimize-schedule", "--n-steps", "8", "--multistarts", "2", "--maxiter", "60",
            "--seed", str(s), "--format", "json"]


def _schedule_check(argv: list[str], stdout: str, out_dir: str) -> float:
    from eploop.loops import OptimizeResult, min_case_fidelity

    body = json.loads(stdout)
    incr, obj, base = body["increments"], body["objective"], body["baseline_objective"]
    _require(abs(base - SCHEDULE_BASELINE_OBJECTIVE) <= 1e-9, f"baseline_objective {base}")
    _require(obj >= base, f"objective {obj} below baseline {base}")
    _require(len(incr) == 8 and all(v > 0 for v in incr), "increments not 8 positive values")
    _require(abs(sum(incr) - 2 * math.pi) <= 1e-12, f"increments sum to {sum(incr)}")
    rescored = min_case_fidelity(OptimizeResult(tuple(incr), obj, base).schedules())
    _require(abs(rescored - obj) <= 1e-12, f"re-scored objective {rescored} != {obj}")
    return obj


# tomography_fig4 ----------------------------------------------------------

def _tomography_argv(seed: int, index: int, out_dir: str) -> list[str]:
    s = _rng("tomography_fig4", seed, index).randrange(2**31)
    return ["reproduce", "fig4", "--seed", str(s), "--out", out_dir]


def _tomography_check(argv: list[str], stdout: str, out_dir: str) -> float:
    files = sorted(os.listdir(out_dir))
    _require(len(files) == 16, f"expected 16 files, got {len(files)}")
    _require(len(stdout.splitlines()) == 16, "expected 16 written paths on stdout")
    scores = []
    for name in files:
        if not name.endswith(".json"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            body = json.load(fh)
        label, rec_fids = body["classified"], body["reconstructed_fidelities"]
        _require(max(rec_fids, key=rec_fids.get) == label,
                 f"{name}: reconstruction classified differently from {label}")
        rec, f = rec_fids[label], body["fidelities"][label]
        _require(abs(rec - f) <= TOMO_FIDELITY_TOLERANCE,
                 f"{name} {label}: reconstructed {rec} vs noiseless {f}")
        scores.append(rec)
    _require(len(scores) == 8, f"expected 8 reports, got {len(scores)}")
    return sum(scores) / len(scores)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chirality_n100", n_steps=100, quality_calls=32, traced_calls=8,
                 argv=_chirality_argv, check=_chirality_check,
                 setup_args=("evolve", "--engine", "full", "--n-steps", "100", "--record-steps",
                             "--direction", "cw", "--input", "zeta1", "--format", "json")),
        Workload("disorder_n100", n_steps=100, quality_calls=24, traced_calls=2,
                 argv=_disorder_argv, check=_disorder_check,
                 setup_args=("disorder", "--n-steps", "100", "--groups", "1", "--direction", "cw",
                             "--seed", "1000", "--format", "json")),
        Workload("schedule_n8", n_steps=8, quality_calls=16, traced_calls=2,
                 argv=_schedule_argv, check=_schedule_check,
                 setup_args=("optimize-schedule", "--n-steps", "8", "--multistarts", "1",
                             "--maxiter", "1", "--format", "json")),
        Workload("tomography_fig4", n_steps=8, quality_calls=32, traced_calls=8,
                 argv=_tomography_argv, check=_tomography_check,
                 setup_args=("reproduce", "fig4", "--out", "{out}"),
                 repeat_first_call=True),
    )
}
