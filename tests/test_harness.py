import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop import harness, tomo
from eploop.cli import _RUN_FLAGS
from eploop.errors import ConfigError, EploopError
from eploop.harness import (
    CaseStats,
    RunConfig,
    case_inputs,
    disorder_csv,
    disorder_run,
    dump_json,
    evolve_cases,
    report_csv,
    report_dict,
    reproduce_figure,
)
from eploop.loops import (
    LOOPS,
    LoopSchedule,
    StepRecords,
    bell_eigenstate,
    bell_eigenstates,
    evolve,
    evolve_batch,
    evolve_full,
    loop1_schedule,
    loop2_schedule,
)
from eploop.metrics import bell_index, bell_state, classify
from eploop.streams import substreams
from eploop.tomo import MAX_RESAMPLES
from eploop.walk import WalkParams


def test_disorder_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(strength=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(groups=0)
    with pytest.raises(ConfigError):
        RunConfig(granularity="per_element")
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    assert RunConfig().granularity == "per_step"
    assert RunConfig().seed == 1234


@pytest.mark.parametrize("kind", ["eigenstate", "bell"])
def test_case_inputs_are_bitwise_case_input(kind, monkeypatch):
    labels = ("zeta3", "zeta1", "zeta4", "zeta2")
    starts = [loop1_schedule(100, "cw").start, loop1_schedule(100, "ccw").start, loop2_schedule(8, "ccw").start,
              loop2_schedule(8, "cw").start, WalkParams(theta1=-0.3, phi=0.1)]
    assert starts[0] == starts[1] and starts[2] == starts[3]  # a loop's start does not depend on its direction
    expected = [bell_eigenstate(label, p) if kind == "eigenstate" else bell_state(label)
                for p in starts for label in labels]
    solved = []
    monkeypatch.setattr(harness, "bell_eigenstates", lambda p: solved.append(p) or bell_eigenstates(p))
    got = case_inputs(labels, kind, starts)
    assert got.tolist() == [psi.tolist() for psi in expected]
    # one eigenbasis per distinct start, and none for Bell inputs
    assert solved == ([starts[0], starts[2], starts[4]] if kind == "eigenstate" else [])


def test_zero_strength_reproduces_baseline_exactly():
    cfg = RunConfig(n_steps=12, directions=("cw",), engine="simplified", inputs=("zeta1", "zeta2"),
                    strength=0.0, groups=3)
    summary = disorder_run(cfg)
    for case in summary.cases:
        assert case.mean_fidelity == case.base_fidelity
        assert case.sd_fidelity == 0.0
        assert case.unchanged_fraction == 1.0
        assert case.drop == 0.0


def test_disorder_run_deterministic():
    cfg = RunConfig(n_steps=10, engine="simplified", inputs=("zeta1", "zeta3"), groups=4, seed=77)
    a = disorder_run(cfg)
    b = disorder_run(cfg)
    assert a == b
    assert [c.direction for c in a.cases] == ["cw", "cw", "ccw", "ccw"]
    assert 0.0 <= a.max_drop < 1.0


def _reference_disorder_run(cfg):
    """One perturbed WalkParams schedule and one evolve per group, case after case."""
    rows = []
    cases = [(cfg.schedule(d), label) for d in cfg.directions for label in cfg.inputs]
    for case_idx, (sched, label) in enumerate(cases):
        psi0 = bell_eigenstate(label, sched.start) if cfg.input_kind == "eigenstate" else bell_state(label)
        base = evolve(sched, psi0, engine=cfg.engine, record_steps=False)
        ref = bell_index(base.classified_output) - 1
        fids, unchanged = [], 0
        for g in range(cfg.groups):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(case_idx, g)))
            )
            draws = 1 if cfg.granularity == "per_loop" else sched.n_steps
            offsets = rng.uniform(-cfg.strength, cfg.strength, size=(draws, 2))
            offsets = np.broadcast_to(offsets, (sched.n_steps, 2)).tolist()
            steps = tuple(p._replace(theta1=p.theta1 + dth, phi=p.phi + dph)
                          for p, (dth, dph) in zip(sched.steps, offsets))
            rep = evolve(LoopSchedule.from_steps(steps, sched.direction, sched.label),
                         psi0, engine=cfg.engine, record_steps=False)
            fids.append(rep.fidelities[ref])
            unchanged += rep.classified_output == base.classified_output
        rows.append((label, sched.direction, base.classified_output, base.fidelities[ref],
                     float(np.mean(fids)), float(np.std(fids)), unchanged / cfg.groups))
    return rows


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(["full", "simplified"]), st.sampled_from([1, 2]),
       st.sampled_from(["per_step", "per_loop"]), st.sampled_from(["eigenstate", "bell"]),
       st.integers(1, 16), st.integers(1, 4), st.floats(0.0, math.pi),
       st.one_of(st.integers(0, 2**200), st.integers(2**128, 2**200)))  # seeds past 4 entropy words too
def test_disorder_run_matches_the_per_run_loop(engine, loop, granularity, input_kind, n_steps,
                                               groups, strength, seed):
    cfg = RunConfig(loop=loop, n_steps=n_steps, engine=engine, input_kind=input_kind,
                    strength=strength, groups=groups, granularity=granularity, seed=seed)
    try:
        expected = _reference_disorder_run(cfg)
    except EploopError as exc:
        with pytest.raises(type(exc)):
            disorder_run(cfg)
        return
    got = disorder_run(cfg).cases
    assert len(got) == len(expected)
    for case, (label, direction, reference, base_f, mean_f, sd_f, unchanged) in zip(got, expected):
        assert (case.input_label, case.direction) == (label, direction)
        assert case.reference_label == reference
        assert case.unchanged_fraction == unchanged
        assert np.allclose([case.base_fidelity, case.mean_fidelity, case.sd_fidelity],
                           [base_f, mean_f, sd_f], rtol=0, atol=1e-12)


def _reference_case_stats(cfg):
    """The per-case loop over one evolve_batch call: runs filled group by group, classify per run, then
    np.mean and np.std of each case's 1-D deviations."""
    cases = [(cfg.schedule(d), label) for d in cfg.directions for label in cfg.inputs]
    per_case = cfg.groups + 1
    runs = np.empty((len(cases) * per_case, cfg.n_steps, 2))
    streams = substreams(cfg.seed, [(case_idx, g) for case_idx in range(len(cases)) for g in range(cfg.groups)])
    for case_idx, (sched, _) in enumerate(cases):
        base = runs[case_idx * per_case]
        base[:, 0], base[:, 1] = sched.knobs[0], sched.knobs[2]
        draws = 1 if cfg.granularity == "per_loop" else sched.n_steps
        for g in range(cfg.groups):
            runs[case_idx * per_case + 1 + g] = base + next(streams).uniform(-cfg.strength, cfg.strength,
                                                                             size=(draws, 2))
    psi0 = np.repeat([bell_eigenstate(label, sched.start) if cfg.input_kind == "eigenstate" else bell_state(label)
                      for sched, label in cases], per_case, axis=0)
    _, theta2, _, gamma, k = cases[0][0].knobs
    outputs = [classify(out) for out in evolve_batch((runs[..., 0], theta2, runs[..., 1], gamma, k), psi0, cfg.engine)]
    stats = []
    for case_idx, (sched, label) in enumerate(cases):
        base_cls, *group_cls = outputs[case_idx * per_case:(case_idx + 1) * per_case]
        ref = bell_index(base_cls.label) - 1
        base_f = base_cls.fidelities[ref]
        dev = np.array([c.fidelities[ref] for c in group_cls]) - base_f
        stats.append(CaseStats(label, sched.direction, base_cls.label, float(base_f), float(base_f + np.mean(dev)),
                               float(np.std(dev)), sum(c.label == base_cls.label for c in group_cls) / cfg.groups))
    return stats


def _bits(case):
    """A CaseStats with every float as its exact bytes."""
    return [v.hex() if isinstance(v, float) else v for v in case]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(["full", "simplified"]), st.sampled_from([1, 2]),
       st.sampled_from(["per_step", "per_loop"]), st.sampled_from(["eigenstate", "bell"]),
       st.integers(1, 24), st.integers(1, 64), st.floats(0.0, math.pi), st.integers(0, 2**64),
       st.sampled_from([("cw",), ("ccw",), ("cw", "ccw"), ("ccw", "cw")]),
       st.lists(st.sampled_from(["zeta1", "zeta2", "zeta3", "zeta4"]), min_size=1, max_size=4, unique=True))
def test_disorder_run_is_bitwise_the_per_case_loop(engine, loop, granularity, input_kind, n_steps, groups,
                                                   strength, seed, directions, inputs):
    cfg = RunConfig(loop=loop, n_steps=n_steps, engine=engine, input_kind=input_kind, strength=strength,
                    groups=groups, granularity=granularity, seed=seed, directions=directions, inputs=tuple(inputs))
    try:
        expected = _reference_case_stats(cfg)
    except EploopError as exc:
        with pytest.raises(type(exc)):
            disorder_run(cfg)
        return
    assert [_bits(case) for case in disorder_run(cfg).cases] == [_bits(case) for case in expected]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(["full", "simplified"]), st.sampled_from([1, 2]),
       st.sampled_from(["eigenstate", "bell"]), st.integers(1, 24), st.booleans(),
       st.sampled_from([("cw",), ("ccw",), ("cw", "ccw"), ("ccw", "cw")]),
       st.lists(st.sampled_from(["zeta1", "zeta2", "zeta3", "zeta4"]), min_size=1, max_size=4, unique=True))
def test_evolve_cases_rows_do_not_depend_on_their_neighbours(engine, loop, input_kind, n_steps,
                                                            record_steps, directions, inputs):
    cfg = RunConfig(loop=loop, n_steps=n_steps, engine=engine, input_kind=input_kind,
                    record_steps=record_steps, directions=directions, inputs=tuple(inputs))
    alone = []
    for direction in directions:
        sched = cfg.schedule(direction)
        for label in inputs:
            psi0 = bell_eigenstate(label, sched.start) if input_kind == "eigenstate" else bell_state(label)
            alone.append(evolve(sched, psi0, engine=engine, input_label=label, record_steps=record_steps))
    batched = evolve_cases(cfg)
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        for name in got._fields:
            assert _plain(getattr(got, name)) == _plain(getattr(want, name)), name


def _plain(value):
    """A report field with its arrays, step records' included, as lists, for == comparison."""
    if isinstance(value, StepRecords):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_disorder_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        disorder_run(RunConfig(n_steps=8, directions=("cw",), inputs=("zeta1",), input_kind="random"))
    with pytest.raises(ConfigError):
        disorder_run(RunConfig(n_steps=8, directions=(), inputs=("zeta1",)))


def test_every_loop_a_run_can_name_comes_from_one_table():
    assert {n: RunConfig(loop=n, n_steps=4).schedule("cw").label for n in LOOPS} == {1: "loop1", 2: "loop2"}
    assert _RUN_FLAGS["loop"][1]["choices"] == tuple(LOOPS)
    with pytest.raises(ConfigError, match=r"^loop must be 1 or 2, got 3$"):
        RunConfig(loop=3)


def test_run_config_validation_and_helpers():
    cfg = RunConfig.from_dict({"loop": 2, "n_steps": 16, "engine": "simplified"})
    assert cfg.schedule("cw").label == "loop2"
    assert cfg.schedule("cw").n_steps == 16
    assert cfg.tomo_config().counts_per_basis == 10000
    assert cfg.groups == 10
    for bad in ({"loop": 3}, {"loop": True}, {"groups": 2.5}, {"n_steps": "8"}, {"seed": -1},
                {"record_steps": "no"}, {"psd_projection": 1}, {"strength": True},
                {"strength": "0.1"}, {"strength": float("nan")}, {"strength": 1e308},
                {"directions": "cw"}, {"inputs": "zeta1"}, {"inputs": ["zeta5"]}, {"inputs": [1]},
                {"tomography": True}, {"disorder": True}, {"directions": []}, {"inputs": []},
                {"counts_per_basis": 10**13}, {"directions": ["ccw", "cw", "ccw"]}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"nsteps": 10})
    with pytest.raises(ConfigError):
        RunConfig(engine="fastest")
    with pytest.raises(ConfigError):
        RunConfig(directions=("cw", "up"))
    with pytest.raises(ConfigError):
        RunConfig(resamples=1)
    assert RunConfig(resamples=MAX_RESAMPLES).resamples == MAX_RESAMPLES  # constructing runs nothing
    with pytest.raises(ConfigError, match=r"resamples must lie in \[2, 100000\]"):
        RunConfig.from_dict({"resamples": MAX_RESAMPLES + 1})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["cw", "ccw", "zeta1", "zeta4", "full", "simplified", "bell", "per_loop"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


# At most two keys, so that one bad value rarely hides the checks behind it.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([*RunConfig._fields, "unknown"]),
                       _JSON_VALUES | st.lists(_JSON_VALUES, max_size=3), max_size=2))
def test_run_config_from_dict_returns_or_raises_config_error(data):
    try:
        RunConfig.from_dict(data)
    except ConfigError:
        pass


def test_report_dict_key_order_and_shapes():
    sched = loop1_schedule(6, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.start), input_label=1)
    d = report_dict(rep)
    assert list(d) == [
        "input",
        "direction",
        "N",
        "loop",
        "engine",
        "output_state",
        "density",
        "fidelities",
        "classified",
        "steps",
    ]
    assert len(d["output_state"]) == 8
    assert len(d["density"]) == 32
    assert list(d["fidelities"]) == ["zeta1", "zeta2", "zeta3", "zeta4"]
    assert len(d["steps"]) == 6
    d2 = report_dict(evolve_full(sched, bell_eigenstate(1, sched.start), input_label=1,
                                 record_steps=False))
    assert "steps" not in d2


def test_dump_json_repr_floats():
    assert dump_json({"x": 0.1}) == '{"x":0.1}\n'
    assert dump_json([1.5, 2.0]) == "[1.5,2.0]\n"


def test_report_csv_header():
    sched = loop1_schedule(4, "ccw")
    rep = evolve_full(sched, bell_eigenstate(2, sched.start), input_label=2, record_steps=False)
    text = report_csv([rep])
    lines = text.splitlines()
    assert lines[0].startswith("input,direction,N,loop,engine,classified")
    assert lines[1].startswith("zeta2,ccw,4,loop1,full,")


def test_disorder_csv_schema():
    cfg = RunConfig(n_steps=6, directions=("cw",), engine="simplified", inputs=("zeta1",), groups=2)
    on = disorder_run(cfg)
    text = disorder_csv(on)
    lines = text.splitlines()
    assert lines[0] == "direction,input,mean_on,sd_on,mean_off,sd_off"
    assert lines[1].startswith("cw,zeta1,")
    assert lines[1].split(",")[4:] == [f"{on.cases[0].base_fidelity:.12g}", "0"]


def test_reproduce_fig1b(tmp_path):
    paths = reproduce_figure("fig1b", str(tmp_path))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["fig1b_ep.json", "fig1b_surface.csv"]
    surface = (tmp_path / "fig1b_surface.csv").read_text()
    assert len(surface.splitlines()) == 61 * 61 + 1
    ep = json.loads((tmp_path / "fig1b_ep.json").read_text())
    assert ep["theta1"] == pytest.approx(-0.2917760531146608, abs=1e-9)
    assert ep["residual"] < 1e-10


def test_fig4_bytes_do_not_depend_on_the_stack_chunks(tmp_path, monkeypatch):
    cfg = RunConfig(seed=77, resamples=12)
    texts = {}
    for rows in (1, 8 * 13):  # one case per chunk; all eight cases in one
        monkeypatch.setattr(tomo, "MAX_STACK_ROWS", rows)
        paths = reproduce_figure("fig4", str(tmp_path / str(rows)), cfg)
        texts[rows] = [(os.path.basename(p), Path(p).read_bytes()) for p in paths]
    assert len(texts[1]) == 16 and texts[1] == texts[8 * 13]


def test_reproduce_figure_refuses_an_out_file_for_library_callers(tmp_path, monkeypatch):
    (tmp_path / "F").write_text("kept\n")
    built = []
    monkeypatch.setitem(harness._FIGURE_TEXTS, "fig4", lambda cfg, optimized: built.append(optimized) or [])
    with pytest.raises(ConfigError, match="F is not a directory"):
        reproduce_figure("fig4", str(tmp_path / "F" / "sub"), optimized=True)
    assert built == [] and (tmp_path / "F").read_text() == "kept\n"


def test_reproduce_rejects_unknown_figure(tmp_path):
    with pytest.raises(ConfigError):
        reproduce_figure("fig9", str(tmp_path))
