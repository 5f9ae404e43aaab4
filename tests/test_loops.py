import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop.errors import ConfigError, DomainError
from eploop.loops import (
    CHIRAL_TARGETS,
    DIRECTIONS,
    bell_eigenstate,
    control_drift,
    equal_phases,
    evolve,
    evolve_full,
    evolve_simplified,
    expected_output,
    loop1_schedule,
    loop2_schedule,
    min_case_fidelity,
    optimize_schedule,
    schedule_from_phases,
    sheet_trace,
)
from eploop.metrics import bell_index, bell_state
from eploop.spectrum import eigensystem
from eploop.walk import control_operator, u_step, walk_operator_product

FULL_SWITCH_F = 0.9825345599899842
FULL_STAY_F = 0.9640449347163164
SIMPL_F = {
    ("cw", 1): 0.9921971860302593,
    ("cw", 2): 0.9923233018025461,
    ("cw", 3): 0.9959243554225284,
    ("cw", 4): 0.9960118933227207,
    ("ccw", 1): 0.9923233018025461,
    ("ccw", 2): 0.9921971860302593,
    ("ccw", 3): 0.9960118933227207,
    ("ccw", 4): 0.9959243554225284,
}


def test_equal_phases_start_and_spacing():
    cw = equal_phases(4, "cw")
    assert cw[0] == pytest.approx(-math.pi / 2)
    assert np.allclose(np.diff(cw), -math.pi / 2)
    ccw = equal_phases(4, "ccw")
    assert np.allclose(np.diff(ccw), math.pi / 2)
    with pytest.raises(ConfigError):
        equal_phases(0, "cw")
    with pytest.raises(ConfigError):
        equal_phases(4, "up")


def test_loop_schedules_share_start_point():
    for maker in (loop1_schedule, loop2_schedule):
        sched = maker(16, "cw")
        p = sched.steps[0]
        assert p.phi == pytest.approx(0.0, abs=1e-15)
        assert p.theta1 == pytest.approx(-0.6)
        assert sched.n_steps == 16
        assert sched.direction == "cw"
    assert loop1_schedule(8, "cw").label == "loop1"
    assert loop2_schedule(8, "ccw").label == "loop2"


def test_loop_geometry():
    s1 = loop1_schedule(100, "cw")
    phis = np.array([p.phi for p in s1.steps])
    th1s = np.array([p.theta1 for p in s1.steps])
    radii = np.hypot(phis, th1s + 0.4)
    assert np.allclose(radii, 0.2, atol=1e-12)
    s2 = loop2_schedule(100, "ccw")
    radii2 = np.hypot([p.phi for p in s2.steps], [p.theta1 + 0.5 for p in s2.steps])
    assert np.allclose(radii2, 0.1, atol=1e-12)


def test_schedule_from_phases_custom():
    sched = schedule_from_phases([0.0, math.pi], "cw", radius=0.3, theta1_center=-0.5)
    assert sched.n_steps == 2
    assert sched.steps[0].phi == pytest.approx(0.3)
    assert sched.steps[0].theta1 == pytest.approx(-0.5)
    assert sched.steps[1].phi == pytest.approx(-0.3)


def test_bell_eigenstate_labels_cover_all_four():
    p0 = loop1_schedule(100, "cw").steps[0]
    for j in range(1, 5):
        v = bell_eigenstate(j, p0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        overlap = abs(np.vdot(bell_state(j), v))
        assert overlap == pytest.approx(0.994353869837, abs=1e-9)
        others = [abs(np.vdot(bell_state(i), v)) for i in range(1, 5) if i != j]
        assert overlap > max(others)


def test_expected_output_table():
    assert expected_output("cw", 1) == "zeta2"
    assert expected_output("cw", 2) == "zeta2"
    assert expected_output("cw", 3) == "zeta3"
    assert expected_output("cw", 4) == "zeta3"
    assert expected_output("ccw", 1) == "zeta1"
    assert expected_output("ccw", 2) == "zeta1"
    assert expected_output("ccw", 3) == "zeta4"
    assert expected_output("ccw", 4) == "zeta4"
    assert set(CHIRAL_TARGETS) == {(d, j) for d in DIRECTIONS for j in range(1, 5)}


def test_full_engine_chirality_frozen_values():
    for direction in DIRECTIONS:
        sched = loop1_schedule(100, direction)
        for j in range(1, 5):
            rep = evolve_full(sched, bell_eigenstate(j, sched.steps[0]), record_steps=False)
            tgt = expected_output(direction, j)
            assert rep.classified_output == tgt
            f = rep.fidelities[bell_index(tgt) - 1]
            expected = FULL_SWITCH_F if rep.classified_output != f"zeta{j}" else FULL_STAY_F
            assert f == pytest.approx(expected, abs=1e-9)


def test_simplified_engine_frozen_values():
    for (direction, j), expected in SIMPL_F.items():
        sched = loop1_schedule(100, direction)
        rep = evolve_simplified(sched, bell_eigenstate(j, sched.steps[0]), record_steps=False)
        tgt = expected_output(direction, j)
        assert rep.classified_output == tgt
        assert rep.fidelities[bell_index(tgt) - 1] == pytest.approx(expected, abs=1e-9)


def test_loop2_fidelities_frozen():
    sched = loop2_schedule(100, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.steps[0]), record_steps=False)
    assert rep.classified_output == "zeta1"
    assert max(rep.fidelities) == pytest.approx(0.9425622119713297, abs=1e-9)
    sched = loop2_schedule(100, "ccw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.steps[0]), record_steps=False)
    assert rep.classified_output == "zeta1"
    assert max(rep.fidelities) == pytest.approx(0.9942232751454556, abs=1e-9)


def test_evolve_dispatcher():
    sched = loop1_schedule(8, "cw")
    psi0 = bell_eigenstate(1, sched.steps[0])
    rep = evolve(sched, psi0, engine="simplified", record_steps=False)
    assert rep.engine == "simplified"
    with pytest.raises(ConfigError):
        evolve(sched, psi0, engine="exact")
    with pytest.raises(DomainError):
        evolve(sched, np.zeros(4, dtype=complex))


_STATES = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.array(v[::2]) + 1j * np.array(v[1::2])
).filter(lambda psi: np.linalg.norm(psi) > 0.1)


def _eigenbasis_weights(p, psi):
    psi = psi / np.linalg.norm(psi)
    raw = np.array([abs(np.vdot(b, psi)) ** 2 for b in eigensystem(p).beta])
    return raw, raw / raw.sum()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=12),
       st.sampled_from(DIRECTIONS), _STATES)
def test_engines_match_their_definitions(phases, direction, psi0):
    # full: prod_n u_step(p_n) psi0; simplified: C_0 (I (x) M_{N-1}...M_0) C_0^-1 psi0
    sched = schedule_from_phases(phases, direction)
    psi0 = psi0 / np.linalg.norm(psi0)
    C, C_inv = control_operator(sched.steps[0])
    u, m = np.eye(4), np.eye(2)
    expected = {"full": [], "simplified": []}
    for p in sched.steps:
        u = u_step(p) @ u
        m = walk_operator_product(p) @ m
        expected["full"].append(u @ psi0)
        expected["simplified"].append(C @ np.kron(np.eye(2), m) @ C_inv @ psi0)
    for engine in (evolve_full, evolve_simplified):
        rep = engine(sched, psi0)
        states = expected[rep.engine]
        final = states[-1] / np.linalg.norm(states[-1])
        assert np.allclose(rep.output_state, final, rtol=0, atol=1e-10)
        assert rep.log_magnitude == pytest.approx(math.log(np.linalg.norm(states[-1])), abs=1e-10)
        for rec, p, psi in zip(rep.per_step, sched.steps, states):
            raw, weights = _eigenbasis_weights(p, psi)
            assert np.allclose(rec.weights_raw, raw, rtol=0, atol=1e-10)
            assert np.allclose(rec.weights, weights, rtol=0, atol=1e-10)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=12),
       st.sampled_from(DIRECTIONS))
def test_full_engine_is_the_simplified_product_in_a_rotated_frame(phases, direction):
    # prod_n u_step(p_n) = C_0 [prod_n G_n (I (x) M_n) G_n^-1] C_0^-1 with
    # G_n = C_0^-1 C_n; the simplified engine sets every G_n to I (criterion 7)
    sched = schedule_from_phases(phases, direction)
    C0, C0_inv = control_operator(sched.steps[0])
    lab, rotated = np.eye(4), np.eye(4)
    for p in sched.steps:
        C, C_inv = control_operator(p)
        lab = u_step(p) @ lab
        rotated = (C0_inv @ C) @ np.kron(np.eye(2), walk_operator_product(p)) @ (C_inv @ C0) @ rotated
    scale = max(1.0, np.abs(lab).max())
    assert np.allclose(C0 @ rotated @ C0_inv, lab, rtol=0, atol=1e-12 * scale)


def test_report_shape_and_step_records():
    sched = loop1_schedule(10, "cw")
    rep = evolve_full(sched, bell_eigenstate(2, sched.steps[0]), input_label=2)
    assert rep.input_label == "zeta2"
    assert rep.n_steps == 10
    assert rep.loop_label == "loop1"
    assert np.linalg.norm(rep.output_state) == pytest.approx(1.0)
    assert np.trace(rep.output_density) == pytest.approx(1.0)
    assert len(rep.per_step) == 10
    for rec in rep.per_step:
        assert len(rec.weights) == 4
        assert sum(rec.weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in rec.weights_raw)
    assert np.isfinite(rep.log_magnitude)


def test_sheet_trace_switch_table():
    expected_switches = {
        ("cw", 1): 0,
        ("cw", 2): 1,
        ("cw", 3): 1,
        ("cw", 4): 0,
        ("ccw", 1): 1,
        ("ccw", 2): 0,
        ("ccw", 3): 0,
        ("ccw", 4): 1,
    }
    for (direction, j), n_switches in expected_switches.items():
        sched = loop1_schedule(100, direction)
        rep = evolve_full(sched, bell_eigenstate(j, sched.steps[0]), record_steps=True)
        tr = sheet_trace(rep)
        assert tr.switches == n_switches, (direction, j)
        if n_switches:
            assert len(tr.switch_steps) == n_switches


def test_sheet_trace_needs_step_records():
    sched = loop1_schedule(8, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.steps[0]), record_steps=False)
    with pytest.raises(DomainError):
        sheet_trace(rep)


def test_control_drift_frozen_values():
    r = control_drift(loop1_schedule(100, "cw"))
    assert r.global_max == pytest.approx(0.04207151495770808, abs=1e-9)
    assert r.flips == 1
    r8 = control_drift(loop1_schedule(8, "cw"))
    assert r8.global_max == pytest.approx(0.4770778989802253, abs=1e-9)
    assert r8.flips == 1
    r2 = control_drift(loop2_schedule(100, "cw"))
    assert r2.global_max == pytest.approx(0.04026872589055447, abs=1e-9)
    assert r2.flips == 0
    assert len(r.deviations) == 100


def test_min_case_fidelity_scan():
    frozen = {
        4: 0.2301864749726884,
        8: 0.5408925599324854,
        16: 0.9185108224063772,
        100: 0.9921971860302593,
    }
    for n, expected in frozen.items():
        scheds = {d: loop1_schedule(n, d) for d in DIRECTIONS}
        assert min_case_fidelity(scheds) == pytest.approx(expected, abs=1e-9)


def test_optimizer_improves_small_loop():
    result = optimize_schedule(4, multistarts=2, maxiter=400)
    assert result.baseline_objective == pytest.approx(0.2301864749726884, abs=1e-9)
    assert result.objective > result.baseline_objective + 0.3
    sched = result.schedule("cw")
    assert sched.n_steps == 4
    assert sched.steps[0].theta1 == pytest.approx(-0.6)
    assert sum(result.increments) == pytest.approx(2 * math.pi)
    with pytest.raises(ConfigError):
        optimize_schedule(3)
    with pytest.raises(ConfigError):
        optimize_schedule(4, multistarts=0)


def test_optimizer_reaches_target_at_experimental_scale():
    result = optimize_schedule(8, multistarts=2)
    assert result.baseline_objective == pytest.approx(0.5408925599324854, abs=1e-9)
    assert result.objective >= 0.85
    assert result.objective == pytest.approx(0.899317, abs=5e-4)
