import json
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop.errors import ConfigError
from eploop.harness import (
    DisorderConfig,
    RunConfig,
    disorder_csv,
    disorder_run,
    dump_json,
    report_csv,
    report_dict,
    reproduce_figure,
)
from eploop.loops import bell_eigenstate, evolve_full, loop1_schedule


def test_disorder_config_validation():
    with pytest.raises(ConfigError):
        DisorderConfig(strength=-0.1)
    with pytest.raises(ConfigError):
        DisorderConfig(groups=0)
    with pytest.raises(ConfigError):
        DisorderConfig(granularity="per_element")
    with pytest.raises(ConfigError):
        DisorderConfig(seed=-1)
    assert DisorderConfig().granularity == "per_step"
    assert DisorderConfig().seed == 1234


def test_zero_strength_reproduces_baseline_exactly():
    sched = loop1_schedule(12, "cw")
    cfg = DisorderConfig(strength=0.0, groups=3)
    summary = disorder_run([sched], ("zeta1", "zeta2"), cfg)
    for case in summary.cases:
        assert case.mean_fidelity == case.base_fidelity
        assert case.sd_fidelity == 0.0
        assert case.unchanged_fraction == 1.0
        assert case.drop == 0.0


def test_disorder_run_deterministic():
    scheds = [loop1_schedule(10, d) for d in ("cw", "ccw")]
    cfg = DisorderConfig(groups=4, seed=77)
    a = disorder_run(scheds, ("zeta1", "zeta3"), cfg)
    b = disorder_run(scheds, ("zeta1", "zeta3"), cfg)
    assert a == b
    assert [c.direction for c in a.cases] == ["cw", "cw", "ccw", "ccw"]
    assert 0.0 <= a.max_drop < 1.0


def test_disorder_rejects_bad_inputs():
    sched = loop1_schedule(8, "cw")
    with pytest.raises(ConfigError):
        disorder_run([sched], ("zeta1",), DisorderConfig(), input_kind="random")
    with pytest.raises(ConfigError):
        disorder_run([], ("zeta1",), DisorderConfig())


def test_run_config_validation_and_helpers():
    cfg = RunConfig.from_dict({"loop": 2, "n_steps": 16, "engine": "simplified"})
    assert cfg.schedule("cw").label == "loop2"
    assert cfg.schedule("cw").n_steps == 16
    assert cfg.tomo_config().counts_per_basis == 10000
    assert cfg.disorder_config().groups == 10
    for bad in ({"loop": 3}, {"loop": True}, {"groups": 2.5}, {"n_steps": "8"}, {"seed": -1},
                {"record_steps": "no"}, {"psd_projection": 1}, {"strength": True},
                {"strength": "0.1"}, {"strength": float("nan")}, {"strength": 1e308},
                {"directions": "cw"}, {"inputs": "zeta1"}, {"inputs": ["zeta5"]}, {"inputs": [1]},
                {"tomography": True}, {"disorder": True}):
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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["cw", "ccw", "zeta1", "zeta4", "full", "simplified", "bell", "per_loop"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


# At most two keys, so that one bad value rarely hides the checks behind it.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)] + ["unknown"]),
                       _JSON_VALUES | st.lists(_JSON_VALUES, max_size=3), max_size=2))
def test_run_config_from_dict_returns_or_raises_config_error(data):
    try:
        RunConfig.from_dict(data)
    except ConfigError:
        pass


def test_report_dict_key_order_and_shapes():
    sched = loop1_schedule(6, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.steps[0]), input_label=1)
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
    d2 = report_dict(evolve_full(sched, bell_eigenstate(1, sched.steps[0]), input_label=1,
                                 record_steps=False))
    assert "steps" not in d2


def test_dump_json_repr_floats():
    assert dump_json({"x": 0.1}) == '{"x":0.1}\n'
    assert dump_json([1.5, 2.0]) == "[1.5,2.0]\n"


def test_report_csv_header():
    sched = loop1_schedule(4, "ccw")
    rep = evolve_full(sched, bell_eigenstate(2, sched.steps[0]), input_label=2, record_steps=False)
    text = report_csv([rep])
    lines = text.splitlines()
    assert lines[0].startswith("input,direction,N,loop,engine,classified")
    assert lines[1].startswith("zeta2,ccw,4,loop1,full,")


def test_disorder_csv_schema():
    sched = loop1_schedule(6, "cw")
    cfg = DisorderConfig(groups=2)
    on = disorder_run([sched], ("zeta1",), cfg)
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


def test_reproduce_rejects_unknown_figure(tmp_path):
    with pytest.raises(ConfigError):
        reproduce_figure("fig9", str(tmp_path))
