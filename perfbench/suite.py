"""Run every workload and print every metric by name and unit.

    python3 perfbench/suite.py [--repeats 2] [--seconds 20] [--seed 1] [--trace] [--json PATH]

Each run is a separate `run.py` process. The workload order rotates from one
repeat to the next, so a stretch of slow machine does not always land on the
same workload; the calibration probe taken before and after each run shows
such stretches, and the wall-clock figures are printed beside the ones at
reference speed. Repeat r uses seed + r. With two or more repeats each metric
also gets its quartile spread: the distance between the first and third
quartile of the runs, as a share of their median.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def print_end_to_end(runs: list[dict]) -> None:
    for name in WORKLOADS:
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        print(f"\n{name}  ({len(mine)} runs, seeds {[r['seed'] for r in mine]})")
        metrics = mine[0]["result"]["metrics"]
        for metric, first in metrics.items():
            values = [r["result"]["metrics"][metric]["value"] for r in mine]
            spread = (f"  quartile spread {stats.quartile_spread(values):.4f}"
                      if len(values) > 1 else "")
            print(f"  {metric:16s} {statistics.median(values):12.5g} {first['unit']:5s}{spread}"
                  f"  runs: {', '.join(f'{v:.5g}' for v in values)}")
        for metric in ("call_p50_ms", "setup_s"):
            values = [r["info"]["wall"][metric] for r in mine]
            spread = (f"  quartile spread {stats.quartile_spread(values):.4f}"
                      if len(values) > 1 else "")
            print(f"  {'wall ' + metric:16s} {statistics.median(values):12.5g} {'':5s}{spread}"
                  f"  runs: {', '.join(f'{v:.5g}' for v in values)}")
        fractions = [r["info"]["failed_fraction"] for r in mine]
        print(f"  {'failed_fraction':16s} {max(fractions):12.5g} {'1':5s}"
              f"  ({sum(r['result']['failed'] for r in mine)} of"
              f" {sum(r['result']['attempted'] for r in mine)} calls)")
        for r in mine:
            tail, probe = r["info"]["call_tail"], r["info"]["calibration_ms"]
            print(f"  seed {r['seed']}: call_tail is p{tail['percentile']:.1f} of {tail['samples']}"
                  f" calls ({tail['samples_beyond']} beyond); calibration"
                  f" {probe['before']:.2f} -> {probe['after']:.2f} ms; correct {r['result']['correct']}")


def print_per_layer(run: dict) -> None:
    info, metrics = run["info"], run["result"]["metrics"]
    print(f"\n{run['workload']} traced (seed {run['seed']}, {info['traced_calls']} calls,"
          f" {info['spans']} spans): dominant self time {info['dominant_self']}")
    shares = sorted(info["self_share"].items(), key=lambda kv: -kv[1])
    for name, share in shares[:8]:
        print(f"  {name:32s} self {metrics[name + '.self_ms']['value']:10.2f} ms"
              f" ({100 * share:5.1f} %)  calls {metrics[name + '.calls']['value']}")
    for metric in ("walk.d_coefficients.per_step", "spectrum.eigensystem.per_step",
                   "harness.write_text.bytes", "loops.min_case_fidelity.calls_per_call",
                   "traced_wall_ms", "unattributed_ms", "trace_overhead"):
        m = metrics[metric]
        print(f"  {metric:40s} {m['value']:.5g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    ap.add_argument("--json", metavar="PATH", help="write every run's output here")
    args = ap.parse_args(argv)

    names = list(WORKLOADS)
    runs = []
    for r in range(args.repeats):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            runs.append(run_once(name, args.seed + r, args.seconds, 0))
    print_end_to_end(runs)
    if args.trace:
        for name in names:
            runs.append(run_once(name, args.seed, args.seconds, 1))
            print_per_layer(runs[-1])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
