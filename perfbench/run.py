"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is the source tree in
./src. Each run starts fresh worker processes (worker.py) with EPLOOP_THREADS
unset and the BLAS/OpenMP thread counts at 1, and writes only under a
temporary directory inside the checkout, removed at the end.

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. End-to-end times are given at reference
speed (see reference.py): each wall time is scaled by REFERENCE_MS over the
reference kernel's time measured next to it, because this machine's speed
drifts by up to 2x within seconds. The wall-clock figures are on the details
line, under "wall". The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment, the calibration probe and the details behind the
metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import stats
from reference import PYTHON_REFERENCE_MS, REFERENCE_MS
from spans import NAMES
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured per run
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop. Recorded, never used to rescale."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("EPLOOP_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root: str, tmp: str, args, mode: str, tag: str) -> dict:
    work = os.path.join(tmp, tag)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--tmp", work, "--result", result_path]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(sample: dict) -> float:
    """Import time plus the first call's lazy set-up (cold minus median warm call)."""
    return sample["import_s"] + max(0.0, sample["cold_s"] - sample["warm_s"])


def call_seconds(calls: list[dict], gaps: list[float]) -> tuple[list[float], list[float]]:
    """(wall, at reference speed) seconds of each call; a failed call is infinite."""
    wall, scaled = [], []
    for c, ref_s in zip(calls, stats.bracketing(gaps)):
        seconds = c["seconds"] if c["ok"] else stats.FAILED_LATENCY
        wall.append(seconds)
        scaled.append(stats.at_reference_speed(seconds, ref_s, REFERENCE_MS / 1000))
    return wall, scaled


def timings(seconds: list[float], setups: list[float]) -> dict:
    """The timed end-to-end metrics from call seconds and set-up seconds."""
    ms = [s * 1000 for s in seconds]
    ok = [s for s in seconds if math.isfinite(s)]
    return {
        "setup_s": statistics.median(setups),
        "call_p50_ms": statistics.median(ms),
        "call_tail_ms": stats.tail(ms)[0],
        "calls_per_s": len(ok) / sum(ok) if ok else 0.0,
    }


def end_to_end(workload, run: dict, setups: list[dict]) -> tuple[dict, dict]:
    calls = run["calls"]
    wall_s, scaled_s = call_seconds(calls, run["gaps"])
    _, tail_pct, beyond = stats.tail(scaled_s)
    attempted, failed, frac = stats.failed_fraction([(c["code"], c["ok"]) for c in calls])
    quality = [c["quality"] for c in calls[:workload.quality_calls]]
    setup_wall = [setup_seconds(s) for s in setups]
    setup_scaled = [stats.at_reference_speed(setup_seconds(s), s["setup_ref_s"],
                                             PYTHON_REFERENCE_MS / 1000) for s in setups]
    units = {"setup_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms", "calls_per_s": "1/s"}
    metrics = {name: (v, units[name]) for name, v in timings(scaled_s, setup_scaled).items()}
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    metrics["objective_mean"] = (
        statistics.fmean(quality) if None not in quality else math.nan, "1")
    details = {
        "calls": attempted,
        "failed": failed,
        "failed_fraction": frac,
        "call_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": attempted},
        "wall": timings(wall_s, setup_wall),
        "reference_ms": {"calls": statistics.median(run["gaps"]) * 1000,
                         "setup": statistics.median(s["setup_ref_s"] for s in setups) * 1000,
                         "nominal": REFERENCE_MS, "setup_nominal": PYTHON_REFERENCE_MS},
        "setup_samples_s": setup_scaled,
        "objective_calls": len(quality),
        "failures": [c["message"] for c in calls if not c["ok"]][:5],
    }
    return metrics, details


def per_layer(workload, run: dict) -> tuple[dict, dict]:
    with open(run["spans_path"], encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    calls = {name: 0 for name in NAMES}
    self_ns = {name: 0 for name in NAMES}
    total_ns = {name: 0 for name in NAMES}  # no listed function calls itself
    errors = {name: 0 for name in NAMES}
    for span, own in zip(spans, selfs):
        name = NAMES[span[0]]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += span[2] - span[1]
        errors[name] += span[5]
    traced = run["traced_calls"]
    untraced = run["calls"]
    wall_ms = sum(c["seconds"] for c in traced) * 1000
    self_ms = {name: ns / 1e6 for name, ns in self_ns.items()}
    steps = (calls["loops.evolve_full"] + calls["loops.evolve_simplified"]) * workload.n_steps
    # Both throughputs at reference speed, so machine drift between the two
    # phases does not read as tracing cost.
    cps_traced = timings(call_seconds(traced, run["traced_gaps"])[1], [0.0])["calls_per_s"]
    cps_untraced = timings(call_seconds(untraced, run["gaps"])[1], [0.0])["calls_per_s"]
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (self_ms[name], "ms")
        metrics[f"{name}.errors"] = (errors[name], "count")
    metrics["walk.d_coefficients.per_step"] = (calls["walk.d_coefficients"] / steps if steps else 0.0, "1")
    metrics["spectrum.eigensystem.per_step"] = (calls["spectrum.eigensystem"] / steps if steps else 0.0, "1")
    metrics["harness.write_text.bytes"] = (trace["text_bytes"], "B")
    metrics["loops.min_case_fidelity.calls_per_call"] = (
        calls["loops.min_case_fidelity"] / len(traced), "count")
    metrics["traced_wall_ms"] = (wall_ms, "ms")
    metrics["unattributed_ms"] = (wall_ms - sum(self_ms.values()), "ms")
    metrics["trace_overhead"] = (cps_traced / cps_untraced if cps_untraced else math.nan, "1")
    dominant = max(NAMES, key=lambda n: self_ms[n])
    details = {
        "traced_calls": len(traced),
        "evolution_steps": steps,
        "spans": len(spans),
        "patched_sites": trace["sites"],
        "dominant_self": dominant,
        "self_share": {n: round(self_ms[n] / wall_ms, 4) for n in NAMES if self_ms[n]},
        "total_share": {n: round(total_ns[n] / 1e6 / wall_ms, 4) for n in NAMES if total_ns[n]},
        "failures": [c["message"] for c in untraced + traced if not c["ok"]][:5],
    }
    return metrics, details


def source_identity(root: str) -> dict:
    """Git SHA of the checkout when it is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eploop", "cli.py")):
        print("no program to measure: run from a checkout holding src/eploop", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker, and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        probe_before = calibration_ms()
        if args.trace:
            run = run_worker(root, tmp, args, "trace", "trace")
            metrics, details = per_layer(workload, run)
            checked = run["calls"] + run["traced_calls"]
            setups = [run]
        else:
            run = run_worker(root, tmp, args, "run", "run")
            setups = [run] + [run_worker(root, tmp, args, "setup", f"setup{i}")
                              for i in range(1, SETUP_SAMPLES)]
            metrics, details = end_to_end(workload, run, setups)
            checked = run["calls"]
        details["failures"] += [f"set-up call: {s['setup_message']}"
                                for s in setups if not s["setup_ok"]]
        probe_after = calibration_ms()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, _ = stats.failed_fraction([(c["code"], c["ok"]) for c in checked])
    correct = failed == 0 and not details["failures"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "closed_loop_clients": 1,
        "versions": run["versions"], "nproc": len(os.sched_getaffinity(0)),
        **source_identity(root),
        "calibration_ms": {"before": probe_before, "after": probe_after},
        **details,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _number(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
