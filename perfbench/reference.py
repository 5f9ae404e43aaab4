"""The reference kernels: fixed pieces of work, timed next to what is measured.

The machine this benchmark runs on changes speed by up to 2x within seconds
(a shared host: process CPU time tracks wall time, so the CPU itself runs
slower). Wall-clock latencies of the same code then spread by 30-50 % from
run to run, more than any bound worth having. So the worker times a kernel
in the gap before and after each unit call, and `run.py` reports each call's
latency at reference speed: its wall time times the kernel's nominal time
over the kernel's time around it. A change to the program moves that figure;
a change in machine speed moves both times and cancels.

The kernels are the benchmark's own code, never the program's, and they mix
the kinds of work eploop does: 2x2/4x4 complex numpy products and spectra,
frozen-dataclass updates, per-step dicts and a JSON dump. A kernel of only
one kind (a memory sweep, say) tracks the program's slowdowns worse.
`python_kernel` is the part that needs no numpy: it brackets the import of
eploop, which must not find numpy already imported.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import time

# Nominal times of the kernels on this benchmark's reference machine (a
# 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) in its faster phases. Only
# scales: the ratio of two runs' figures does not depend on them.
REFERENCE_MS = 3.0
PYTHON_REFERENCE_MS = 1.5
GAP_SHARE = 0.04  # reference time after a unit call, as a share of the call
SETUP_GAP_S = 0.03  # reference time before and after a process's set-up


@dataclasses.dataclass(frozen=True)
class _Params:
    theta: float
    phi: float
    gamma: float


def python_kernel() -> int:
    """One repetition of the pure-Python work; returns a checksum."""
    p = _Params(0.1, 0.2, 0.3)
    records = []
    for i in range(150):
        p = dataclasses.replace(p, theta=p.theta + 0.01)
        records.append({"step": i, "theta": p.theta,
                        "weights": [math.cos(p.theta * j) for j in range(4)]})
    acc = 0
    for i in range(7000):
        acc += i * i
    return len(json.dumps(records)) + acc % 7


@functools.cache
def _numpy_inputs():
    import numpy as np  # here, so that importing this module leaves numpy out

    m = np.array([[0.3 + 0.1j, 0.2, 0, 0.1j], [0.1, 0.5j, 0.2, 0],
                  [0, 0.2, 0.4, 0.1], [0.1j, 0, 0.1, 0.6]])
    return np, m, m[:2, :2].copy()


def kernel() -> int:
    """One repetition of the whole work: small numpy products and spectra,
    then `python_kernel`. Returns a checksum so no part is skipped."""
    np, big, small = _numpy_inputs()
    m = big
    for _ in range(30):
        k = np.kron(small, small)
        w, _ = np.linalg.eig(m)
        m = (k @ big) * 0.5
    return python_kernel() + int(abs(w[0]) > 0)


def gap_seconds(budget_s: float = 0.0, work=kernel, min_reps: int = 3) -> float:
    """Time `work` in one gap between measured intervals: the median repetition.

    The gap lasts at least `min_reps` repetitions and about `budget_s`, so a
    long call is bracketed by a longer sample of machine speed. The first
    repetition after a unit call runs slower, on caches the call has filled
    with its own data; the median of three or more leaves it out.
    """
    times = []
    spent = 0.0
    while len(times) < min_reps or spent < budget_s:
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return sorted(times)[len(times) // 2]
