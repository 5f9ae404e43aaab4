"""One workload run in a fresh process: `run.py` starts it and reads the JSON
result file it writes.

Modes:
  setup  import eploop, then make the workload's short set-up call four
         times (cold, then warm).
  run    setup, then the timed closed loop with tracing off.
  trace  setup, an untraced closed loop for half the time, then a fixed number
         of unit calls with spans recorded around every listed function.

Every unit call goes through `eploop.cli.main(argv)` in this process with its
standard output captured. Outputs are checked after the call returns, outside
its timed interval. The reference kernel (reference.py) is timed in the gap
before and after every timed unit call and after the set-up calls, so that
`run.py` can report times at reference speed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from workloads import WORKLOADS, CheckFailed


class Caller:
    """Makes unit calls against the imported CLI and checks their outputs."""

    def __init__(self, cli, workload, seed: int, tmp: str, reference):
        self.cli, self.workload, self.seed, self.tmp = cli, workload, seed, tmp
        self.reference = reference

    def gap(self, previous_s: float = 0.0) -> float:
        """Reference time in the gap after an interval of `previous_s`."""
        return self.reference.gap_seconds(self.reference.GAP_SHARE * previous_s)

    def out_dir(self, tag: str) -> str:
        return os.path.join(self.tmp, tag)

    def invoke(self, argv: list[str], tracer=None) -> tuple[object, float, str, str]:
        """Run `cli.main(argv)` with output captured: (exit code, seconds, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        return code, elapsed, out.getvalue(), err.getvalue().strip()[-500:]

    def call(self, index: int, tag: str, tracer=None) -> dict:
        """Make unit call `index` writing under out_dir(tag); check its output."""
        out_dir = self.out_dir(tag)
        argv = self.workload.argv(self.seed, index, out_dir)
        if tracer is not None:
            tracer.request = index
        code, elapsed, stdout, message = self.invoke(argv, tracer)
        outcome = {"index": index, "code": code, "seconds": elapsed, "ok": False,
                   "quality": None, "message": message}
        if code == 0:
            try:
                outcome["quality"] = self.workload.check(argv, stdout, out_dir)
                outcome["ok"] = True
            except (CheckFailed, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                outcome["message"] = f"check failed: {type(exc).__name__}: {exc}"
        return outcome

    def loop(self, seconds: float, min_calls: int, tag: str) -> tuple[list[dict], list[float]]:
        """Closed loop: call 0, 1, 2, ... until `seconds` pass and `min_calls` are done.

        Returns the calls and the reference time of each gap around them, one
        more gap than calls.
        """
        done, gaps = [], [self.gap()]
        deadline = time.perf_counter() + seconds
        index = 0
        while index < min_calls or time.perf_counter() < deadline:
            done.append(self.call(index, f"{tag}{index}"))
            if index > 0:
                shutil.rmtree(self.out_dir(f"{tag}{index}"), ignore_errors=True)
            gaps.append(self.gap(done[-1]["seconds"]))
            index += 1
        return done, gaps

    def first_call_repeats(self, tag: str) -> bool:
        """Rerun call 0 into a fresh directory; True if every file is byte-identical."""
        again = self.call(0, "repeat")
        if not again["ok"]:
            return False
        first, second = self.out_dir(f"{tag}0"), self.out_dir("repeat")
        names = sorted(os.listdir(first))
        if names != sorted(os.listdir(second)):
            return False
        for name in names:
            with open(os.path.join(first, name), "rb") as a, open(os.path.join(second, name), "rb") as b:
                if a.read() != b.read():
                    return False
        return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    import reference  # imports nothing eploop needs, numpy only when first used

    reference.python_kernel()  # its own first-use costs stay out of the gap
    ref_before = reference.gap_seconds(reference.SETUP_GAP_S, reference.python_kernel)
    start = time.perf_counter()
    import eploop.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"eploop imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    caller = Caller(cli, workload, args.seed, args.tmp, reference)
    # The set-up call runs cold, then warm three times; its lazy set-up is
    # then done before any timed unit call.
    cold_code, cold_s, _, cold_msg = caller.invoke(workload.setup_argv(caller.out_dir("cold")))
    warm = [caller.invoke(workload.setup_argv(caller.out_dir(f"warm{i}"))) for i in range(3)]
    ref_after = reference.gap_seconds(reference.SETUP_GAP_S, reference.python_kernel)
    reference.kernel()  # its own first-use costs stay out of every gap
    result = {
        "import_s": import_s,
        "cold_s": cold_s,
        "warm_s": sorted(w[1] for w in warm)[1],
        "setup_ref_s": (ref_before + ref_after) / 2,
        "setup_ok": cold_code == 0 and all(w[0] == 0 for w in warm),
        "setup_message": cold_msg or next((w[3] for w in warm if w[3]), ""),
    }
    if args.mode == "run":
        calls, result["gaps"] = caller.loop(args.seconds, workload.quality_calls, "call")
        if workload.repeat_first_call and calls[0]["ok"] and not caller.first_call_repeats("call"):
            calls[0]["ok"] = False
            calls[0]["message"] = "check failed: repeating call 0 did not give byte-identical files"
        result["calls"] = calls
    elif args.mode == "trace":
        result["calls"], result["gaps"] = caller.loop(args.seconds / 2, 1, "call")
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced, traced_gaps = [], [caller.gap()]
        for index in range(workload.traced_calls):
            traced.append(caller.call(index, f"traced{index}", tracer))
            traced_gaps.append(caller.gap(traced[-1]["seconds"]))
        result["traced_calls"], result["traced_gaps"] = traced, traced_gaps
        spans_path = os.path.join(args.tmp, "spans.json")
        tracer.write(spans_path)
        result["spans_path"] = spans_path
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import numpy
    import scipy  # imported last, so the set-up call above pays for it as users do

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
