import collections
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from eploop import loops
from eploop.errors import ConfigError, DomainError, SingularMatrix, TooCloseToEP
from eploop.loops import (
    CHIRAL_TARGETS,
    DIRECTIONS,
    ENGINES,
    LoopSchedule,
    OptimizeResult,
    bell_eigenstate,
    bell_eigenstates,
    control_drift,
    equal_phases,
    evolve,
    evolve_batch,
    evolve_full,
    evolve_many,
    evolve_simplified,
    expected_output,
    loop1_schedule,
    loop2_schedule,
    min_case_fidelity,
    optimize_schedule,
    schedule_from_phases,
    sheet_trace,
)
from eploop.harness import RunConfig, evolve_cases
from eploop.loops import _increments_from_x, _nelder_mead, _objective_rows, _row_norms
from eploop.metrics import bell_index, bell_state, classify, fidelity_pure
from eploop.spectrum import eigensystem, find_ep
from eploop.walk import (
    WalkParams,
    coin_entries,
    control_operator,
    u_step,
    walk_operator_closed,
    walk_operator_closed_array,
    walk_operator_product,
)

from test_walk import SINGULAR_COIN

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
        p = sched.start
        assert p.phi == pytest.approx(0.0, abs=1e-15)
        assert p.theta1 == pytest.approx(-0.6)
        assert sched.n_steps == 16
        assert sched.direction == "cw"
        assert sched.start == p
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


def test_circular_schedules_vary_theta1_and_phi_only():
    sched = loop1_schedule(8, "ccw")
    theta1, theta2, phi, gamma, k = sched.knobs
    assert (theta2, gamma, k) == (math.pi / 16, 0.2, 0.0)
    assert theta1.tolist() == [p.theta1 for p in sched.steps]
    assert phi.tolist() == [p.phi for p in sched.steps]
    for values in (theta1, phi):
        assert values.shape == (8,)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_schedule_knobs_are_floats_or_read_only_arrays_of_one_length():
    steps = [WalkParams(theta1=-0.6, gamma=0.1), WalkParams(theta1=-0.5, k=0.3)]
    sched = LoopSchedule.from_steps(steps, "cw")
    assert sched.steps == tuple(steps)
    assert sched.n_steps == 2 and sched.label == "custom"
    theta1 = np.array([-0.6, -0.5])
    mixed = LoopSchedule((theta1, 0.1, 0.0, 0.2, np.zeros(2)), "cw", "mixed")
    theta1[0] = 9.0  # the schedule holds a copy
    assert mixed.knobs[0].tolist() == [-0.6, -0.5]
    assert mixed.knobs[1:4] == (0.1, 0.0, 0.2)
    assert mixed.start == WalkParams(theta1=-0.6, theta2=0.1, phi=0.0, gamma=0.2, k=0.0)
    for knobs in [(0.1,) * 5, (np.zeros(2), 0.1, np.zeros(3), 0.2, 0.0), (np.zeros(0),) + (0.1,) * 4,
                  (np.zeros((2, 2)),) + (0.1,) * 4, (np.zeros(2),) + (0.1,) * 3]:
        with pytest.raises(ConfigError, match="at least 1 step"):
            LoopSchedule(knobs, "cw", "custom")
    with pytest.raises(ConfigError, match="at least 1 step"):
        LoopSchedule.from_steps([], "cw")
    with pytest.raises(ConfigError, match="direction"):
        LoopSchedule.from_steps(steps, "up")


def test_schedule_from_phases_custom():
    sched = schedule_from_phases([0.0, math.pi], "cw", radius=0.3, theta1_center=-0.5)
    assert sched.n_steps == 2
    assert sched.start.phi == pytest.approx(0.3)
    assert sched.start.theta1 == pytest.approx(-0.5)
    assert sched.steps[1].phi == pytest.approx(-0.3)


@pytest.mark.parametrize("phases, radius, center", [
    ([math.nan, 0.5, 1.0], 0.2, -0.4),
    ([0.0, math.inf], 0.2, -0.4),
    ([0.0, 1.0], math.nan, -0.4),
    ([0.0, 1.0], 0.2, -math.inf),
])
def test_schedule_from_phases_rejects_non_finite_values(phases, radius, center):
    for direction in DIRECTIONS:
        with pytest.raises(ConfigError, match="finite"):
            schedule_from_phases(phases, direction, radius=radius, theta1_center=center)


def test_bell_eigenstate_labels_cover_all_four():
    p0 = loop1_schedule(100, "cw").start
    for j in range(1, 5):
        v = bell_eigenstate(j, p0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        overlap = abs(np.vdot(bell_state(j), v))
        assert overlap == pytest.approx(0.994353869837, abs=1e-9)
        others = [abs(np.vdot(bell_state(i), v)) for i in range(1, 5) if i != j]
        assert overlap > max(others)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.0, 1.0), st.floats(0.05, 0.5), st.floats(-0.3, 0.3))
def test_bell_eigenstates_match_the_per_label_overlap_loop(theta1, phi, gamma, k):
    p = WalkParams(theta1=theta1, phi=phi, gamma=gamma, k=k)
    try:
        picks = bell_eigenstates(p)
    except TooCloseToEP:
        return
    for j in range(1, 5):
        target, best, best_f = bell_state(j), None, -1.0
        for a in eigensystem(p).alpha:
            v = a / np.linalg.norm(a)
            if abs(np.vdot(target, v)) > best_f:
                best, best_f = v, abs(np.vdot(target, v))
        assert np.array_equal(picks[j - 1], best)
        assert np.array_equal(bell_eigenstate(j, p), best)


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
            rep = evolve_full(sched, bell_eigenstate(j, sched.start), record_steps=False)
            tgt = expected_output(direction, j)
            assert rep.classified_output == tgt
            f = rep.fidelities[bell_index(tgt) - 1]
            expected = FULL_SWITCH_F if rep.classified_output != f"zeta{j}" else FULL_STAY_F
            assert f == pytest.approx(expected, abs=1e-9)


def test_simplified_engine_frozen_values():
    for (direction, j), expected in SIMPL_F.items():
        sched = loop1_schedule(100, direction)
        rep = evolve_simplified(sched, bell_eigenstate(j, sched.start), record_steps=False)
        tgt = expected_output(direction, j)
        assert rep.classified_output == tgt
        assert rep.fidelities[bell_index(tgt) - 1] == pytest.approx(expected, abs=1e-9)


def test_loop2_fidelities_frozen():
    sched = loop2_schedule(100, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.start), record_steps=False)
    assert rep.classified_output == "zeta1"
    assert max(rep.fidelities) == pytest.approx(0.9425622119713297, abs=1e-9)
    sched = loop2_schedule(100, "ccw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.start), record_steps=False)
    assert rep.classified_output == "zeta1"
    assert max(rep.fidelities) == pytest.approx(0.9942232751454556, abs=1e-9)


def test_evolve_dispatcher():
    sched = loop1_schedule(8, "cw")
    psi0 = bell_eigenstate(1, sched.start)
    rep = evolve(sched, psi0, engine="simplified", record_steps=False)
    assert rep.engine == "simplified"
    with pytest.raises(ConfigError):
        evolve(sched, psi0, engine="exact")
    with pytest.raises(DomainError):
        evolve(sched, np.zeros(4, dtype=complex))


def _coin_knobs(theta1, phi):
    """evolve_batch's five knobs for (theta1, phi) rows, with theta2, gamma and k at their WalkParams defaults."""
    coin = WalkParams(theta1=0.0)
    return theta1, coin.theta2, phi, coin.gamma, coin.k


def test_evolve_batch_guards_the_ep_like_evolve_simplified():
    ep = find_ep()
    theta1 = np.array([[-0.6, -0.5], [ep.theta1, -0.5]])
    phi = np.zeros_like(theta1)
    psi0 = [bell_state(1), bell_state(3)]
    at_ep = LoopSchedule.from_steps((WalkParams(theta1=ep.theta1), WalkParams(theta1=-0.5)), "cw")
    with pytest.raises(TooCloseToEP):
        evolve_simplified(at_ep, psi0[1])
    with pytest.raises(TooCloseToEP):
        evolve_batch(_coin_knobs(theta1, phi), psi0, "simplified")
    out = evolve_batch(_coin_knobs(theta1, phi), psi0, "full")[1]
    assert np.allclose(out, evolve_full(at_ep, psi0[1], record_steps=False).output_state, rtol=0, atol=1e-12)
    with pytest.raises(ConfigError):
        evolve_batch(_coin_knobs(theta1, phi), psi0, "exact")


def test_evolve_batch_needs_one_input_per_knob_row():
    theta1, phi = np.full((3, 4), -0.6), np.zeros((3, 4))
    for engine in ENGINES:
        for inputs in ([bell_state(1)] * 2, [bell_state(1)], [bell_state(1)] * 4):
            with pytest.raises(ConfigError, match="one input per row") as info:
                evolve_batch(_coin_knobs(theta1, phi), inputs, engine)
            assert "\n" not in str(info.value)
        assert evolve_batch(_coin_knobs(theta1, phi), [bell_state(1)] * 3, engine).shape == (3, 4)


def test_evolve_batch_rejects_knobs_that_do_not_broadcast():
    theta1, phi = np.full((3, 5), -0.6), np.zeros((3, 4))
    for engine in ENGINES:
        with pytest.raises(ConfigError, match="one input per row") as info:
            evolve_batch(_coin_knobs(theta1, phi), [bell_state(1)] * 3, engine)
        assert "\n" not in str(info.value)


def _reference_chain_products(m: np.ndarray) -> np.ndarray:
    """The former (rows, N, 2, 2) form of loops._chain_products, its bitwise reference: the four entries as one
    (4, rows, N) stack, pairwise levels, each product divided by its largest |entry|."""
    x = np.moveaxis(m.reshape(*m.shape[:2], 4), -1, 0)  # (4, rows, N): entries 00, 01, 10, 11
    while x.shape[2] > 1:
        hi, lo = x[:, :, 1::2], x[:, :, 0:x.shape[2] - 1:2]
        prod = np.stack([hi[0] * lo[0] + hi[1] * lo[2], hi[0] * lo[1] + hi[1] * lo[3],
                         hi[2] * lo[0] + hi[3] * lo[2], hi[2] * lo[1] + hi[3] * lo[3]])
        prod /= np.abs(prod).max(axis=0)
        x = np.concatenate([prod, x[:, :, -1:]], axis=2) if x.shape[2] % 2 else prod
    return np.moveaxis(x[:, :, 0], 0, -1).reshape(-1, 2, 2)


@pytest.mark.parametrize("rows", [1, 88])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 100, 257])
def test_plane_chain_is_bitwise_the_stacked_chain(rows, n_steps):
    """_chain_products on coin_entries' four planes is bitwise the stacked form, odd tails and one-step chains
    included; the digests pin only the default study's shapes."""
    rng = np.random.default_rng(rows * 1000 + n_steps)
    theta1, phi = rng.uniform(-1.0, 0.2, (rows, n_steps)), rng.uniform(-0.3, 0.3, (rows, n_steps))
    for knobs in (_coin_knobs(theta1, phi), (theta1, rng.uniform(0.05, 0.6, (rows, 1)), phi,
                                             rng.uniform(0.02, 0.6, (rows, 1)), rng.uniform(-0.1, 0.1, (rows, 1)))):
        P = loops._chain_products(*coin_entries(*knobs))
        assert P.shape == (rows, 2, 2)
        assert P.tobytes() == _reference_chain_products(walk_operator_closed_array(*knobs)).tobytes()


def test_evolve_batch_rejects_zero_and_misshapen_inputs():
    theta1, phi = np.full((2, 3), -0.6), np.zeros((2, 3))
    for engine in ENGINES:
        with pytest.raises(DomainError, match="zero state"):
            evolve_batch(_coin_knobs(theta1, phi), [bell_state(1), np.zeros(4)], engine)
        with pytest.raises(DomainError, match="4 amplitudes"):
            evolve_batch(_coin_knobs(theta1, phi), [np.ones(3), np.ones(3)], engine)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_amplitudes_raise_domain_error_without_a_warning(amplitude):
    psi = [amplitude, 0.0, 0.0, 1.0]
    theta1, phi = np.full((2, 3), -0.6), np.zeros((2, 3))
    for engine in ENGINES:
        with pytest.raises(DomainError, match="norm (nan|inf)"):
            evolve(loop1_schedule(4, "cw"), psi, engine=engine)
        with pytest.raises(DomainError, match="norm (nan|inf)"):
            evolve_batch(_coin_knobs(theta1, phi), [bell_state(1), psi], engine)
    with pytest.raises(DomainError, match="row 0"):
        classify(np.array(psi))


def test_a_norm_that_overflows_raises_domain_error_without_a_warning():
    psi = [1e308, 1e308, 1e308, 0.0]  # every amplitude finite, the norm not
    theta1, phi = np.full((2, 3), -0.6), np.zeros((2, 3))
    for engine in ENGINES:
        with pytest.raises(DomainError, match="norm inf"):
            evolve(loop1_schedule(4, "cw"), psi, engine=engine)
        with pytest.raises(DomainError, match="norm inf"):
            evolve_batch(_coin_knobs(theta1, phi), [bell_state(1), psi], engine)


@pytest.mark.parametrize("bad", [np.ones(3), np.zeros(4), [math.nan, 0.0, 0.0, 1.0], [1e308, 1e308, 1e308, 0.0],
                                 [np.ones(4), np.ones(3)], [np.ones(4), np.ones((2, 2))]],
                         ids=["misshapen", "zero", "nan", "overflow", "ragged", "mixed"])
def test_every_evolution_path_rejects_a_bad_input_with_one_message(bad):
    theta1, phi = np.full((1, 3), -0.6), np.zeros((1, 3))
    messages = set()
    for engine in ENGINES:
        for run in (lambda: evolve_batch(_coin_knobs(theta1, phi), [bad], engine),
                    lambda: evolve(loop1_schedule(3, "cw"), bad, engine=engine)):
            with pytest.raises(DomainError) as info:
                run()
            messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_both_engines_accept_any_shape_of_4_amplitudes():
    theta1, phi = np.full((2, 3), -0.6), np.zeros((2, 3))
    flat = np.array([bell_state(1), bell_state(3)])
    for engine in ENGINES:
        expected = evolve_batch(_coin_knobs(theta1, phi), flat, engine)
        assert np.array_equal(evolve_batch(_coin_knobs(theta1, phi), flat.reshape(2, 2, 2), engine), expected)
        assert np.array_equal(evolve_batch(_coin_knobs(theta1, phi), flat[:, :, None], engine), expected)
        one = evolve(loop1_schedule(3, "cw"), flat[0], engine=engine).output_state
        assert np.array_equal(evolve(loop1_schedule(3, "cw"), flat[0].reshape(2, 2), engine=engine).output_state, one)


# real and imaginary parts from subnormal up to 1e150, and 0
_PARTS = st.one_of(st.floats(-1e150, 1e150), st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 498)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=4, max_size=4), min_size=1, max_size=5))
def test_row_norms_are_numpys_norm_of_each_state_alone(rows):
    states = np.array(rows, dtype=complex)
    expected = [np.linalg.norm(s).hex() for s in states]
    assert [v.hex() for v in _row_norms(states).tolist()] == expected
    assert [v.hex() for v in _row_norms(states.reshape(1, -1, 4))[0].tolist()] == expected


def test_a_row_norm_that_overflows_is_inf_as_numpys_is():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [1e308, 1e308j, 1e308, 0.0]])
    with np.errstate(over="ignore"):  # as _unit_rows silences it; numpy's norm warns here too
        assert _row_norms(rows).tolist() == [1.0, math.inf] == [np.linalg.norm(r) for r in rows]


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
    C, C_inv = control_operator(sched.start)
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
        assert rep.per_step.weights_raw.shape == rep.per_step.weights.shape == (len(states), 4)
        for got_raw, got_weights, p, psi in zip(rep.per_step.weights_raw, rep.per_step.weights, sched.steps, states):
            raw, weights = _eigenbasis_weights(p, psi)
            assert np.allclose(got_raw, raw, rtol=0, atol=1e-10)
            assert np.allclose(got_weights, weights, rtol=0, atol=1e-10)


def _scalar_steps(steps, psi0):
    """The per-step loop of the full engine: u_step, np.linalg.norm, math.log, vdot with the betas."""
    psi = psi0 / np.linalg.norm(psi0)
    logmag, records = 0.0, []
    for p in steps:
        psi = u_step(p) @ psi
        nrm = np.linalg.norm(psi)
        logmag += math.log(nrm)
        psi = psi / nrm
        es = eigensystem(p)
        raw = tuple(float(abs(np.vdot(b, psi)) ** 2) for b in es.beta)
        total = ((raw[0] + raw[1]) + raw[2]) + raw[3]  # sum() compensates from Python 3.12 on
        records.append((raw, tuple(w / total for w in raw), logmag, (es.eta_plus, es.eta_minus)))
    return psi, logmag, records


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_EP_THETA1 = -0.2917760531146608  # within EP_GUARD of the EP (at the default knobs, phi = 0)
# (theta1, theta2, phi, gamma, k) over the whole domain, or default knobs near the EP:
# an offset of 2e-7 to 1e-4 puts |eta - D0| between about 1.8e-4 and 4e-3, outside the guard (1.22e-4)
_STEP = st.one_of(
    st.tuples(_ANGLE, _ANGLE, _ANGLE, st.floats(-2.0, 2.0), _ANGLE).map(lambda v: WalkParams(*v)),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(2e-7, 1e-4)).map(
        lambda v: WalkParams(theta1=_EP_THETA1 + v[0] * v[1])),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.lists(st.tuples(st.lists(_STEP, min_size=n, max_size=n), _STATES), min_size=1, max_size=4)))
def test_core_is_bitwise_the_scalar_step_loop(rows):
    schedules = [LoopSchedule.from_steps(steps, "cw") for steps, _ in rows]
    inputs = [psi0 for _, psi0 in rows]
    try:
        expected = [_scalar_steps(steps, psi0) for steps, psi0 in rows]
    except TooCloseToEP as exc:  # e.g. gamma = 0 puts some steps on an EP
        with pytest.raises(TooCloseToEP, match=re.escape(str(exc))):
            evolve_many(schedules, inputs, ["custom"])
        return
    reports = evolve_many(schedules, inputs, ["custom"])
    for rep, (psi, logmag, records) in zip(reports, expected):
        assert rep.output_state.tolist() == psi.tolist()
        assert rep.log_magnitude == logmag
        rec = rep.per_step
        columns = (rec.weights_raw, rec.weights, rec.log_magnitude, rec.eta)
        assert not any(a.flags.writeable for a in columns)
        assert [(tuple(raw), tuple(w), lm, tuple(eta))
                for raw, w, lm, eta in zip(*(a.tolist() for a in columns))] == records


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 64), st.sampled_from([loop1_schedule, loop2_schedule]), st.sampled_from(DIRECTIONS),
       st.lists(st.tuples(st.floats(0.0, 0.1), st.integers(0, 2**32 - 1), _STATES), min_size=1, max_size=5),
       st.tuples(st.floats(0.1, 0.3), st.floats(0.1, 0.3), st.floats(-0.3, 0.3)))
def test_collapsed_simplified_batch_matches_the_stepwise_engine(n_steps, loop, direction, rows, coin):
    # each row: the loop perturbed by uniform (theta1, phi) offsets of its own strength (0 keeps it exact), on the
    # coin (theta2, gamma, k) that every row shares, near the default one and clear of the EP guards
    base = loop(n_steps, direction)
    points = np.array([(p.theta1, p.phi) for p in base.steps])
    runs = np.array([points + np.random.default_rng(seed).uniform(-strength, strength, points.shape)
                     for strength, seed, _ in rows])
    psi0 = [psi for _, _, psi in rows]
    theta2, gamma, k = coin
    schedules = [LoopSchedule.from_steps([WalkParams(t, theta2, f, gamma, k) for t, f in run], direction)
                 for run in runs]
    knobs = (runs[..., 0], theta2, runs[..., 1], gamma, k)
    got = evolve_batch(knobs, psi0, "simplified")
    for out, sched, psi in zip(got, schedules, psi0):
        expected = evolve_simplified(sched, psi, record_steps=False).output_state
        assert np.allclose(out, expected, rtol=0, atol=1e-12)
    full = evolve_many(schedules, psi0, ["custom"], "full", record_steps=False)
    assert [out.tobytes() for out in evolve_batch(knobs, psi0, "full")] == [rep.output_state.tobytes() for rep in full]


def _report_bits(rep):
    """Every field of a report, arrays as their exact bytes."""
    rec = rep.per_step
    arrays = [rep.output_state, rep.output_density] + ([] if rec is None else
                                                       [rec.weights_raw, rec.weights, rec.log_magnitude, rec.eta])
    return ((rep.input_label, rep.direction, rep.n_steps, rep.loop_label, rep.engine, rep.fidelities,
             rep.classified_output, rep.log_magnitude.hex(), rec is None),
            [(a.shape, a.tobytes()) for a in arrays])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(st.lists(_STEP, min_size=n, max_size=n), min_size=1, max_size=3)),
       st.lists(st.sampled_from(("zeta1", "zeta2", "zeta3", "zeta4", "custom", 3)), min_size=1, max_size=4),
       st.sampled_from(tuple(ENGINES)), st.booleans(), st.data())
def test_every_report_of_a_grid_is_bitwise_its_own_evolution(steps, labels, engine, record_steps, data):
    schedules = [LoopSchedule.from_steps(s, direction) for s, direction in zip(steps, DIRECTIONS * 2)]
    inputs = data.draw(st.lists(_STATES, min_size=len(schedules) * len(labels), max_size=len(schedules) * len(labels)))
    cases = [(sched, label) for sched in schedules for label in labels]  # schedule-major, as the grid's inputs
    try:
        expected = [evolve(sched, psi, engine, label, record_steps) for (sched, label), psi in zip(cases, inputs)]
    except (DomainError, SingularMatrix, TooCloseToEP):  # e.g. a step on an EP
        with pytest.raises((DomainError, SingularMatrix, TooCloseToEP)):
            evolve_many(schedules, inputs, labels, engine, record_steps)
        return
    reports = evolve_many(schedules, inputs, labels, engine, record_steps)
    assert [_report_bits(rep) for rep in reports] == [_report_bits(rep) for rep in expected]


def test_a_grid_needs_one_input_per_schedule_and_label():
    schedules = [loop1_schedule(4, d) for d in DIRECTIONS]
    for inputs in ([bell_state(1)] * 3, [bell_state(1)] * 8, [bell_state(1)]):
        with pytest.raises(ConfigError) as info:
            evolve_many(schedules, inputs, ["zeta1", "zeta2"])
        assert "\n" not in str(info.value)
    assert len(evolve_many(schedules, [bell_state(1)] * 4, ["zeta1", "zeta2"])) == 4


def test_the_inputs_of_a_schedule_share_its_step_operators(monkeypatch):
    shapes = collections.defaultdict(set)
    for name in ("u_step_array", "eigensystem_array", "control_operator_array"):
        def recorded(*knobs, _name=name, _fn=getattr(loops, name)):
            shapes[_name].add(np.shape(knobs[0]))  # theta1, the first knob, varies along every loop
            return _fn(*knobs)
        monkeypatch.setattr(loops, name, recorded)
    for engine in ENGINES:
        reports = evolve_cases(RunConfig(n_steps=6, engine=engine, record_steps=True))
        assert len(reports) == 8
    assert shapes["u_step_array"] == {(2, 6)}
    assert shapes["control_operator_array"] == {(2,)}
    assert shapes["eigensystem_array"] - {()} == {(2, 6)}  # () is case_inputs' one eigenbasis per start


def test_collapsed_simplified_batch_stays_finite_on_a_long_loop():
    # stepwise, M_{N-1}...M_0 on loop 1 reaches |P| ~ 1e115 at N = 5000; each level is rescaled
    sched = loop1_schedule(5000, "cw")
    theta1, phi = np.array([(p.theta1, p.phi) for p in sched.steps]).T
    psi0 = bell_eigenstates(sched.start)
    out = evolve_batch(_coin_knobs(np.tile(theta1, (4, 1)), np.tile(phi, (4, 1))), psi0, "simplified")
    assert np.isfinite(out).all()
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-14)
    for got, rep in zip(out, evolve_many([sched], psi0, [1, 2, 3, 4], "simplified", record_steps=False)):
        assert classify(got).label == rep.classified_output
        assert np.allclose(got, rep.output_state, rtol=0, atol=1e-10)


def test_step_records_guard_the_ep_like_eigensystem():
    healthy = loop1_schedule(6, "cw")
    steps = list(healthy.steps)
    steps[3] = WalkParams(theta1=_EP_THETA1)
    near = LoopSchedule.from_steps(steps, "cw")
    with pytest.raises(TooCloseToEP) as ref:
        eigensystem(steps[3])
    assert str(steps[3]) in str(ref.value)
    guard = re.escape(str(ref.value))
    psi0 = bell_state(1)
    for name, engine in (("full", evolve_full), ("simplified", evolve_simplified)):
        with pytest.raises(TooCloseToEP, match=guard):
            engine(near, psi0, record_steps=True)
        with pytest.raises(TooCloseToEP, match=guard):
            evolve_many([healthy, near, healthy], [psi0] * 3, ["zeta1"], name)
    # u_step has no guard: without records the full engine runs through the EP step
    alone = evolve_full(near, psi0, record_steps=False)
    assert np.isfinite(alone.output_state).all()
    batched = evolve_many([healthy, near], [psi0] * 2, ["zeta1"], "full", record_steps=False)
    assert batched[1].output_state.tolist() == alone.output_state.tolist()
    with pytest.raises(ConfigError):
        evolve_many([healthy], [psi0], ["zeta1"], "exact")


# with theta2, gamma and k at their defaults, the coin basis is singular where d0 = 0 and phi = pi/2
_DEFAULT_SINGULAR_COIN = WalkParams(theta1=1.3589832105906143, phi=math.pi / 2)


def test_control_pairs_guard_the_first_failing_row_like_control_operator():
    # rows: healthy, singular coin basis, inside EP_GUARD; the singular row fails first
    healthy = loop1_schedule(6, "cw")
    near_ep = WalkParams(theta1=_EP_THETA1)
    with pytest.raises(TooCloseToEP):
        control_operator(near_ep)
    for singular in (SINGULAR_COIN, _DEFAULT_SINGULAR_COIN):
        with pytest.raises(SingularMatrix) as ref:
            control_operator(singular)
        guard = f"^{re.escape(str(ref.value))}$"
        starts = (healthy.start, singular, near_ep)
        schedules = [LoopSchedule.from_steps((p,) + healthy.steps[1:], "cw") for p in starts]
        with pytest.raises(SingularMatrix, match=guard):
            evolve_many(schedules, [bell_state(1)] * 3, ["zeta1"], "simplified", record_steps=False)
        with pytest.raises(SingularMatrix, match=guard):
            control_drift(LoopSchedule.from_steps(starts, "cw"))
        knobs = np.moveaxis([[p.knobs for p in sched.steps] for sched in schedules], -1, 0)
        with pytest.raises(SingularMatrix, match=guard):
            evolve_batch(tuple(knobs), [bell_state(1)] * 3, "simplified")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=12),
       st.sampled_from(DIRECTIONS))
def test_full_engine_is_the_simplified_product_in_a_rotated_frame(phases, direction):
    # prod_n u_step(p_n) = C_0 [prod_n G_n (I (x) M_n) G_n^-1] C_0^-1 with
    # G_n = C_0^-1 C_n; the simplified engine sets every G_n to I (criterion 7)
    sched = schedule_from_phases(phases, direction)
    C0, C0_inv = control_operator(sched.start)
    lab, rotated = np.eye(4), np.eye(4)
    for p in sched.steps:
        C, C_inv = control_operator(p)
        lab = u_step(p) @ lab
        rotated = (C0_inv @ C) @ np.kron(np.eye(2), walk_operator_product(p)) @ (C_inv @ C0) @ rotated
    scale = max(1.0, np.abs(lab).max())
    assert np.allclose(C0 @ rotated @ C0_inv, lab, rtol=0, atol=1e-12 * scale)


def test_report_shape_and_step_records():
    sched = loop1_schedule(10, "cw")
    rep = evolve_full(sched, bell_eigenstate(2, sched.start), input_label=2)
    assert rep.input_label == "zeta2"
    assert rep.n_steps == 10
    assert rep.loop_label == "loop1"
    assert np.linalg.norm(rep.output_state) == pytest.approx(1.0)
    assert np.trace(rep.output_density) == pytest.approx(1.0)
    rec = rep.per_step
    assert rec.weights.shape == rec.weights_raw.shape == (10, 4)
    assert rec.log_magnitude.shape == (10,) and rec.eta.shape == (10, 2)
    for weights, raw in zip(rec.weights.tolist(), rec.weights_raw.tolist()):
        assert sum(weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in raw)
    assert np.isfinite(rep.log_magnitude)


def test_sheet_trace_switch_table():
    # as read off one step record object per step
    expected_switch_steps = {
        ("cw", 1): (),
        ("cw", 2): (40,),
        ("cw", 3): (40,),
        ("cw", 4): (),
        ("ccw", 1): (40,),
        ("ccw", 2): (),
        ("ccw", 3): (),
        ("ccw", 4): (40,),
    }
    for (direction, j), switch_steps in expected_switch_steps.items():
        sched = loop1_schedule(100, direction)
        rep = evolve_full(sched, bell_eigenstate(j, sched.start), record_steps=True)
        tr = sheet_trace(rep)
        assert tr.switch_steps == switch_steps, (direction, j)
        assert tr.switches == len(switch_steps)


def test_sheet_trace_needs_step_records():
    sched = loop1_schedule(8, "cw")
    rep = evolve_full(sched, bell_eigenstate(1, sched.start), record_steps=False)
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


def _scalar_min_case_fidelity(schedules):
    """The one-direction-at-a-time scalar chain that the stacked objective replaced."""
    worst = math.inf
    for direction in DIRECTIONS:
        steps = schedules[direction].steps
        C, C_inv = control_operator(steps[0])
        psi0 = bell_eigenstates(steps[0])
        P = np.eye(2, dtype=complex)
        for p in steps:
            P = walk_operator_closed(p) @ P
            P /= np.abs(P).max()
        out = ((psi0 @ C_inv.T).reshape(4, 2, 2) @ P.T).reshape(4, 4) @ C.T
        for j, psi in enumerate(out, start=1):
            worst = min(worst, fidelity_pure(bell_state(CHIRAL_TARGETS[direction, j]), psi / np.linalg.norm(psi)))
    return worst


def _engine_min_case_fidelity(schedules):
    worst = math.inf
    for (direction, j), target in CHIRAL_TARGETS.items():
        sched = schedules[direction]
        rep = evolve_simplified(sched, bell_eigenstate(j, sched.start), record_steps=False)
        worst = min(worst, rep.fidelities[target - 1])
    return worst


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=16).map(
        lambda incr: OptimizeResult(tuple(incr), 0.0, 0.0).schedules()),
    st.integers(1, 16).map(lambda n: {d: loop2_schedule(n, d) for d in DIRECTIONS}),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(  # directions of unequal length
        lambda n: {"cw": loop2_schedule(n[0], "cw"), "ccw": loop1_schedule(n[1], "ccw")}),
))
def test_min_case_fidelity_is_the_simplified_engine(schedules):
    expected = _engine_min_case_fidelity(schedules)
    assert min_case_fidelity(schedules) == pytest.approx(expected, rel=0, abs=1e-12)
    assert min_case_fidelity(schedules) == _scalar_min_case_fidelity(schedules)


def test_min_case_fidelity_rejects_non_finite_case_fidelities():
    steps = list(loop1_schedule(4, "cw").steps)
    steps[2] = WalkParams(theta1=math.nan)
    schedules = {"cw": LoopSchedule.from_steps(steps, "cw"), "ccw": loop1_schedule(4, "ccw")}
    with pytest.raises(DomainError, match="finite"):
        min_case_fidelity(schedules)


def test_min_case_fidelity_scores_each_schedule_under_its_own_direction():
    right = {d: loop1_schedule(8, d) for d in DIRECTIONS}
    assert min_case_fidelity(right) == pytest.approx(0.5408925599324854, abs=1e-12)
    for swapped in ({"cw": right["ccw"], "ccw": right["cw"]}, {"cw": right["cw"], "ccw": right["cw"]}):
        with pytest.raises(ConfigError, match="direction of its key"):
            min_case_fidelity(swapped)


def test_min_case_fidelity_long_loop_stays_finite():
    # unrescaled, M_{N-1}...M_0 on loop 1 overflows near N = 13,500
    schedules = {d: loop1_schedule(13500, d) for d in DIRECTIONS}
    value = min_case_fidelity(schedules)
    assert math.isfinite(value)
    assert value == pytest.approx(_engine_min_case_fidelity(schedules), rel=0, abs=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(4, 32), st.integers(0, 2**32 - 1))
def test_optimizer_objective_is_bitwise_min_case_fidelity(n_steps, seed):
    x = np.random.default_rng(seed).normal(0.0, 1.5, n_steps)
    incr = _increments_from_x(x)
    schedules = OptimizeResult(tuple(incr.tolist()), 0.0, 0.0).schedules()
    assert _objective_rows(x[None])[0] == min_case_fidelity(schedules) == _scalar_min_case_fidelity(schedules)


# optimize_schedule(8, multistarts=2, maxiter=60, seed=S) as the scalar objective found it:
# an equal result shows that Nelder-Mead walks the same path on the stacked objective
FROZEN_OPTIMA = {
    0: ((0.394806902707317, 0.31685972586796923, 0.5480680226949581, 0.3833482752716898,
         0.3133495100373556, 0.474620379121486, 2.952153162132941, 0.8999793293458703), 0.6395592488186749),
    7: ((0.610308107349995, 0.737997533552833, 0.4674427821973533, 0.30023892237010147,
         0.42699132524340666, 0.3146767304017921, 0.6336727669846146, 2.791857139079491), 0.6146062089729748),
    20260815: ((1.0689229470173307, 1.4090805365889805, 0.894430241314427, 0.7046002154247173,
                0.7415411489531231, 0.16110352737850767, 0.5136079022793143, 0.7898987882231858),
               0.7217890575248104),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_OPTIMA))
def test_optimizer_trajectory_is_frozen(seed):
    result = optimize_schedule(8, multistarts=2, maxiter=60, seed=seed)
    assert (result.increments, result.objective) == FROZEN_OPTIMA[seed]
    assert result.baseline_objective == 0.5408925599324853


def test_optimizer_scores_the_baseline_once(monkeypatch):
    calls = []
    monkeypatch.setattr(loops, "_objective_rows", lambda x: calls.append(x.copy()) or _objective_rows(x))
    result = optimize_schedule(8, multistarts=2, maxiter=60, seed=7)
    assert (result.increments, result.objective) == FROZEN_OPTIMA[7]
    assert result.baseline_objective == 0.5408925599324853
    assert len(calls) == 103
    assert sum(not row.any() for x in calls for row in x) == 1  # x = 0, vertex 0 of start 0's first simplex


def test_optimizer_improves_small_loop():
    result = optimize_schedule(4, multistarts=2, maxiter=400)
    assert result.baseline_objective == pytest.approx(0.2301864749726884, abs=1e-9)
    assert result.objective > result.baseline_objective + 0.3
    sched = result.schedule("cw")
    assert sched.n_steps == 4
    assert sched.start.theta1 == pytest.approx(-0.6)
    assert sum(result.increments) == pytest.approx(2 * math.pi)
    with pytest.raises(ConfigError):
        optimize_schedule(3)
    with pytest.raises(ConfigError):
        optimize_schedule(4, multistarts=0)
    with pytest.raises(ConfigError):
        optimize_schedule(4, maxiter=0)
    with pytest.raises(ConfigError):
        optimize_schedule(4, seed=-1)


def test_optimizer_reaches_target_at_experimental_scale():
    result = optimize_schedule(8, multistarts=2)
    assert result.baseline_objective == pytest.approx(0.5408925599324854, abs=1e-9)
    assert result.objective >= 0.85
    assert result.objective == pytest.approx(0.899317, abs=5e-4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(4, 32), st.integers(0, 2**32 - 1))
def test_objective_rows_are_the_one_row_objective(rows, n_steps, seed):
    x = np.random.default_rng(seed).normal(0.0, 1.5, (rows, n_steps))
    assert _objective_rows(x).tolist() == [_objective_rows(row[None])[0] for row in x]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_objective_rows_reject_a_non_finite_row(bad):
    # min(math.inf, *f) would skip NaN and score such a row +inf, which Nelder-Mead takes as its best vertex
    x = np.zeros((2, 8))
    x[1, 3] = bad
    with pytest.raises(DomainError, match="finite.*at row 1"):
        _objective_rows(x)
    assert _objective_rows(x[:1]).tolist() == [0.5408925599324853]


def test_objective_start_constants_are_the_schedules_start_frames():
    (c_t, a), targets = loops._objective_frames()
    x = np.random.default_rng(4).normal(0.0, 1.5, 8)
    schedules = OptimizeResult(tuple(_increments_from_x(x).tolist()), 0.0, 0.0).schedules()
    for row, d in enumerate(DIRECTIONS):
        fresh_c_t, fresh_a = loops._start_frames((schedules[d].start,))
        assert c_t.tobytes() == fresh_c_t.tobytes() and a.tobytes() == fresh_a.tobytes()
        assert c_t.shape == (1, 4, 4) and a.shape == (1, 8, 2)
        assert targets[row].tobytes() == np.array([bell_state(CHIRAL_TARGETS[d, j]) for j in (1, 2, 3, 4)]).tobytes()
    # built on first use, never at import
    code = ("import eploop; from eploop import loops\n"
            "print(loops._objective_frames.cache_info().currsize, loops._start_frames.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


# Cheap row functions for the lockstep Nelder-Mead: elementwise over columns, so each row's
# value is independent of the rows beside it. Over the cases below their runs take every kind
# of step, and they end on the tolerance test as well as on maxiter.
_ROW_FUNCTIONS = {
    "bowl": lambda x: sum((i + 1) * (c - 0.3) * (c - 0.3) for i, c in enumerate(x.T)),
    "rosenbrock": lambda x: sum(100 * (b - a * a) * (b - a * a) + (1 - a) * (1 - a)
                                for a, b in zip(x.T[:-1], x.T[1:])) + 0 * x[:, 0],  # zeros at N = 1
    "kink": lambda x: np.max(np.abs(x - 0.5), axis=1) + 0.1 * x[:, 0],
    "steps": lambda x: sum(np.floor(3 * c) for c in x.T),  # plateaus: ties in every sort
}


def _scipy_run(f_rows, x0, maxiter):
    """scipy's Nelder-Mead from x0: its result, the points it asked for in order, and the kinds of
    step it took, read off their values: a reflection, then an expansion or a contraction, then a
    shrink."""
    points = []
    res = minimize(lambda x: points.append(x.copy()) or float(f_rows(x[None])[0]), x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-6})
    n, values = len(x0), f_rows(np.array(points)).tolist()
    fsim, later, kinds = sorted(values[:n + 1]), iter(values[n + 1:]), collections.Counter()
    for fxr in later:
        if fxr < fsim[0]:
            kind, fsim[-1] = "expansion", min(next(later), fxr)
        elif fxr < fsim[-2]:
            kind, fsim[-1] = "reflection", fxr
        else:
            kind, f2 = "outside" if fxr < fsim[-1] else "inside", next(later)
            if (f2 <= fxr) if kind == "outside" else (f2 < fsim[-1]):
                fsim[-1] = f2
            else:
                kind, fsim[1:] = "shrink", [next(later) for _ in range(n)]
        kinds[kind] += 1
        fsim.sort()
    return res, np.array(points), kinds


def _lockstep_matches_scipy(f_rows, x0, maxiter) -> collections.Counter:
    """Check every start of a lockstep run against scipy: its (x, fun) within the group and, run
    alone, every point it asks for. Returns the kinds of step scipy took and how its runs ended."""
    kinds = collections.Counter()
    for start, x, fun in zip(x0, *_nelder_mead(f_rows, x0, maxiter)):
        res, points, steps = _scipy_run(f_rows, start, maxiter)
        asked = []
        alone = _nelder_mead(lambda rows: asked.append(rows.copy()) or f_rows(rows), start[None], maxiter)
        assert np.concatenate(asked).tobytes() == points.tobytes()
        for x_, fun_ in ((x, fun), (alone[0][0], alone[1][0])):
            assert res.x.tobytes() == x_.tobytes() and res.fun == fun_
        kinds.update(steps)
        kinds[f"status {res.status}"] += 1
    return kinds


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_ROW_FUNCTIONS)), st.integers(1, 6), st.integers(1, 4),
       st.one_of(st.just(1), st.integers(1, 300)), st.integers(0, 2**32 - 1))
def test_lockstep_nelder_mead_is_scipy_start_by_start(name, n, starts, maxiter, seed):
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, (starts, n))
    x0[0, ::2] = 0.0  # zero coordinates take scipy's other initial step
    _lockstep_matches_scipy(_ROW_FUNCTIONS[name], x0, maxiter)


def test_lockstep_cases_take_every_kind_of_step():
    kinds, rng = collections.Counter(), np.random.default_rng(5)
    for f_rows in _ROW_FUNCTIONS.values():
        for n in (1, 2, 3, 5):
            kinds += _lockstep_matches_scipy(f_rows, rng.uniform(-2.0, 2.0, (3, n)), 200)
    # status 0: stopped on xatol/fatol; status 2: stopped at maxiter
    assert {"expansion", "reflection", "outside", "inside", "shrink", "status 0", "status 2"} <= set(kinds), kinds


def test_optimizer_results_do_not_depend_on_the_group_size(monkeypatch):
    expected = optimize_schedule(4, seed=3, multistarts=7, maxiter=40)
    # 1 start per group and 1 row per objective call; 1 start per group; groups of 5
    for entries in (1, 20, 100):
        monkeypatch.setattr(loops, "_LOCKSTEP_ENTRIES", entries)
        assert optimize_schedule(4, seed=3, multistarts=7, maxiter=40) == expected


def test_optimizer_memory_stays_flat_in_the_number_of_starts(monkeypatch):
    monkeypatch.setattr(loops, "_LOCKSTEP_ENTRIES", 200)  # groups of 10 starts at N = 4

    def peak(multistarts):
        tracemalloc.start()
        try:
            optimize_schedule(4, multistarts=multistarts, maxiter=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # caches filled
    assert peak(500) < 1.5 * peak(20)  # one group of 500 starts: about 20 times


def test_evolution_reports_compare_and_hash_by_identity():
    a, b = (evolve_full(loop1_schedule(4, "cw"), bell_state(1)) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
