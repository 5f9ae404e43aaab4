"""Tests for the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench -q
"""
import math
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# tail percentile ----------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(1, 101))  # 1..100
    value, pct, beyond = stats.tail(xs)
    assert value == 90
    assert pct == 90.0
    assert beyond == 10
    assert sum(1 for x in xs if x > value) == 10


def test_tail_percentile_follows_sample_count():
    value, pct, beyond = stats.tail(range(1, 1001))
    assert (value, pct, beyond) == (990, 99.0, 10)
    value, pct, beyond = stats.tail([5.0] * 4 + [1.0] * 11)  # unsorted input, n = 15
    assert value == 1.0 and pct == pytest.approx(100 * 5 / 15) and beyond == 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3, 1, 2]) == (3, 100.0, 0)
    assert stats.tail(list(range(10))) == (9, 100.0, 0)
    assert stats.tail(list(range(11))) == (0, 100 * 1 / 11, 10)


def test_failed_calls_count_as_missing_latency_bounds():
    lat = [10.0] * 20 + [stats.FAILED_LATENCY] * 11
    value, _, _ = stats.tail(lat)
    assert math.isinf(value)
    assert statistics.median([10.0, stats.FAILED_LATENCY, stats.FAILED_LATENCY]) == math.inf


def test_tail_rejects_empty_input():
    with pytest.raises(ValueError):
        stats.tail([])


# self time ----------------------------------------------------------------

def test_self_time_without_children_is_duration():
    assert stats.self_times([(0, 100, -1)]) == [100]


def test_self_time_subtracts_nested_children_once():
    spans = [
        (0, 100, -1),  # root
        (10, 60, 0),   # child of root
        (20, 30, 1),   # grandchild: covered by its parent, not by root
        (40, 50, 1),
    ]
    assert stats.self_times(spans) == [50, 30, 10, 10]
    assert sum(stats.self_times(spans)) == 100


def test_self_time_merges_adjacent_and_overlapping_children():
    spans = [
        (0, 100, -1),
        (10, 30, 0),
        (30, 50, 0),   # adjacent to the previous child
        (45, 70, 0),   # overlaps it
        (90, 100, 0),  # ends with the parent
    ]
    assert stats.self_times(spans)[0] == 100 - (70 - 10) - 10


def test_self_time_clips_children_to_parent():
    assert stats.self_times([(10, 20, -1), (5, 25, 0)])[0] == 0


def test_self_times_of_a_tree_sum_to_root_duration():
    # A chain of spans as the tracer records them: the self times of every
    # span under one root sum to the root's duration.
    spans = [(0, 1000, -1), (100, 900, 0), (200, 300, 1), (300, 400, 1), (500, 800, 1),
             (600, 700, 4), (950, 990, 0)]
    assert sum(stats.self_times(spans)) == 1000


# failed_fraction ----------------------------------------------------------

@pytest.mark.parametrize("code, ok, failed", [
    (0, True, False),
    (0, False, True),   # output check failed
    (2, False, True),   # configuration error
    (3, False, True),   # numerical-guard error
    (2, True, True),    # a non-zero exit fails even if nothing was checked
    (None, False, True),  # raised instead of returning
])
def test_call_failed(code, ok, failed):
    assert stats.call_failed(code, ok) is failed


def test_failed_fraction_counts_against_attempted():
    outcomes = [(0, True)] * 6 + [(2, False), (3, False), (0, False), (0, True)]
    assert stats.failed_fraction(outcomes) == (10, 3, 0.3)
    assert stats.failed_fraction([(0, True)]) == (1, 0, 0.0)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / q2


# reference speed ----------------------------------------------------------

def test_each_call_takes_the_slower_gap_around_it():
    assert stats.bracketing([2.0, 4.0, 3.0]) == [4.0, 4.0]
    assert stats.bracketing([2.0, 1.0, 3.0, 2.5]) == [2.0, 3.0, 3.0]
    assert stats.bracketing([5.0]) == []
    with pytest.raises(ValueError):
        stats.bracketing([])


def test_a_slower_machine_cancels_at_reference_speed():
    # The same call on a machine running at half speed: both times double.
    fast = stats.at_reference_speed(0.080, 0.003, 0.003)
    slow = stats.at_reference_speed(0.160, 0.006, 0.003)
    assert fast == pytest.approx(0.080) and slow == pytest.approx(fast)
    # A program twice as slow on the same machine reads twice as slow.
    assert stats.at_reference_speed(0.160, 0.003, 0.003) == pytest.approx(2 * fast)


def test_a_failed_call_stays_infinite_at_reference_speed():
    assert stats.at_reference_speed(stats.FAILED_LATENCY, 0.004, 0.003) == math.inf


def test_reference_module_leaves_numpy_unimported():
    # The worker times eploop's import after loading this module, so numpy
    # must still be unimported then.
    import subprocess

    code = "import reference, sys; reference.python_kernel(); print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(os.path.abspath(__file__)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# argv generation ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_is_a_pure_function_of_the_seed(name):
    w = WORKLOADS[name]
    first = [w.argv(7, i, "out") for i in range(40)]
    again = [w.argv(7, i, "out") for i in reversed(range(40))][::-1]
    assert first == again
    assert first != [w.argv(8, i, "out") for i in range(40)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_stays_on_the_documented_command(name):
    w = WORKLOADS[name]
    argvs = [w.argv(seed, i, "out") for seed in range(3) for i in range(20)]
    commands = {a[0] for a in argvs}
    assert len(commands) == 1
    assert len({tuple(a) for a in argvs}) > 1  # the seed does reach the program


def test_chirality_argv_draws_every_loop_and_input_kind():
    w = WORKLOADS["chirality_n100"]
    drawn = {(a[a.index("--loop") + 1], a[a.index("--input-kind") + 1])
             for a in (w.argv(1, i, "out") for i in range(64))}
    assert drawn == {(loop, kind) for loop in ("1", "2") for kind in ("eigenstate", "bell")}


def test_disorder_argv_uses_the_checked_seed_pool():
    w = WORKLOADS["disorder_n100"]
    seeds = {int(a[a.index("--seed") + 1]) for a in (w.argv(3, i, "out") for i in range(200))}
    assert seeds <= set(range(1000, 1030))


def test_tomography_argv_writes_where_told():
    argv = WORKLOADS["tomography_fig4"].argv(1, 0, "some/dir")
    assert argv[-2:] == ["--out", "some/dir"]


# tracer -------------------------------------------------------------------

def test_tracer_reaches_calls_made_through_import_sites_and_engine_table():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import eploop.cli  # noqa: F401  loads every module the CLI imports by name
    from eploop import harness, loops
    from spans import NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    for fn in (loops.ENGINES["simplified"], loops.evolve_simplified, harness.bell_eigenstate,
               loops.bell_eigenstate):
        assert hasattr(fn, "__wrapped__")  # set by functools.wraps in the wrapper
    assert all(tracer.sites[name] >= 1 for name in NAMES)

    sched = loops.loop1_schedule(4, "cw")
    psi0 = loops.bell_eigenstate(1, sched.steps[0])  # tracing still off: no span
    tracer.enabled, tracer.request = True, 7
    loops.evolve(sched, psi0, engine="simplified", record_steps=False)
    tracer.enabled = False

    names = [NAMES[s[0]] for s in tracer.spans]
    assert names.count("loops.evolve_simplified") == 1
    assert names.count("walk.walk_operator_closed") == 4
    assert "loops.bell_eigenstate" not in names
    assert {s[4] for s in tracer.spans} == {7}
    root = names.index("loops.evolve_simplified")
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in tracer.spans])
    start, end = tracer.spans[root][1], tracer.spans[root][2]
    assert sum(selfs) == end - start
