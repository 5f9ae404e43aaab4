import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eploop import spectrum
from eploop.errors import ConfigError, DomainError, NoBracket, TooCloseToEP
from eploop.harness import surface_csv
from eploop.spectrum import (
    eigensystem,
    eigensystem_array,
    exceptional_points,
    find_ep,
    point_in_polygon,
    quasienergy_array,
    riemann_surface,
)
from eploop.walk import EP_GUARD, WalkParams, control_operator_array, d_arrays, ep_gap, u_step

from test_walk import START, _reference_d_coefficients, random_params


def test_quasienergy_at_start():
    lp, lm = quasienergy_array(*START.knobs)
    assert lp == pytest.approx(-0.38027139475904936, abs=1e-12)
    assert lm == pytest.approx(-lp, abs=1e-12)


def test_quasienergy_principal_branch():
    rng = np.random.default_rng(20)
    for _ in range(200):
        lp, lm = quasienergy_array(*random_params(rng).knobs)
        for lam in (lp, lm):
            assert -math.pi < lam.real <= math.pi


def test_eigensystem_eigenvalue_equations():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        try:
            es = eigensystem(p)
        except TooCloseToEP:
            continue
        checked += 1
        u = u_step(p)
        for i in range(4):
            assert np.max(np.abs(u @ es.alpha[i] - es.eta[i] * es.alpha[i])) < 1e-9
            assert np.max(np.abs(u.conj().T @ es.beta[i] - np.conj(es.eta[i]) * es.beta[i])) < 1e-9


def test_eigensystem_biorthonormal():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        try:
            es = eigensystem(p)
        except TooCloseToEP:
            continue
        checked += 1
        g = np.array([[np.vdot(es.beta[i], es.alpha[j]) for j in range(4)] for i in range(4)])
        assert np.max(np.abs(g - np.eye(4))) < 1e-9


def test_eigensystem_eta_pattern():
    es = eigensystem(START)
    assert es.eta == (es.eta_plus, es.eta_minus, es.eta_minus, es.eta_plus)
    assert es.eta_plus * es.eta_minus == pytest.approx(1.0, abs=1e-12)


def test_eigensystem_guards_at_coalescence():
    with pytest.raises(TooCloseToEP):
        eigensystem(WalkParams(theta1=-0.2917760531146608))


def test_each_ep_of_the_default_box_is_two_2x2_jordan_blocks():
    # the paper's quadruple degeneracy: at an EP, u_step has eta = D0 = +-1 four times, rank(u - D0 I) = 2 and
    # (u - D0 I)^2 = 0, so it is similar to two copies of ((D0, 1), (0, D0)). Measured at the closed-form
    # points: singular values 0.160, 0.160, 1e-15, 1e-15, max|(u - D0 I)^2| 2e-16, |eta - D0| up to 1.3e-8
    # (a 2x2 block perturbed by eps splits its eigenvalue by about sqrt(eps)); the bounds leave 50x to 100x.
    eps = exceptional_points()
    assert [round(theta1, 6) for theta1 in eps] == [-0.291776, -0.13185]
    for theta1 in eps:
        u = u_step(WalkParams(theta1=theta1))
        D0 = u[0, 0]
        assert abs(abs(D0) - 1.0) <= 4.5e-16  # 2 ulp
        nilpotent = u - D0 * np.eye(4)
        singular_values = np.linalg.svd(nilpotent, compute_uv=False)
        assert singular_values[1] > 0.1 and singular_values[2] < 1e-13
        assert np.abs(nilpotent @ nilpotent).max() < 1e-14
        assert np.abs(np.linalg.eigvals(u) - D0).max() < 1e-6


def test_eigensystem_and_control_pair_refuse_from_the_same_gap_down():
    # along phi = 0 across both EPs of the default box, |s| = |eta - D0| runs from about 0.04 down to 0
    for root in exceptional_points():
        offsets = np.geomspace(1e-17, 1e-2, 120)
        theta1 = root + np.concatenate([-offsets, offsets])
        s = ep_gap(d_arrays(theta1, WalkParams.theta2, 0.0, WalkParams.gamma, WalkParams.k)[0])
        gaps = np.hypot(s.real, s.imag)
        assert gaps.min() <= EP_GUARD < gaps.max()
        for t, gap in zip(theta1.tolist(), gaps.tolist()):
            knobs = WalkParams(theta1=t).knobs
            if gap > EP_GUARD:  # both return: at this coin the det(B) test fires only below |s| = 1.14e-4
                eigensystem_array(*knobs)
                control_operator_array(*knobs)
                continue
            messages = []
            for form in (eigensystem_array, control_operator_array):
                with pytest.raises(TooCloseToEP) as info:
                    form(*knobs)
                messages.append(str(info.value))
            assert messages[0] == messages[1] == f"|eta - D0| = {gap:.3e} at {WalkParams(theta1=t)}"


def test_riemann_surface_grid_order():
    grid = riemann_surface((-0.1, 0.1, 3), (-0.5, -0.3, 3))
    assert grid.shape == (9, 6) and grid.dtype == float
    phis = grid[:, 0].tolist()
    assert phis == sorted(phis)  # phi-major
    assert grid[:3, 1].tolist() == sorted(grid[:3, 1].tolist())
    # conjugate-pair structure: the two sheets mirror about zero
    np.testing.assert_allclose(grid[:, 4:], -grid[:, 2:4], rtol=0, atol=1e-12)
    # the columns are the quasienergy pair of each (phi, theta1) point
    phi, theta1 = grid[4, :2].tolist()
    lp, lm = quasienergy_array(*WalkParams(theta1=theta1, phi=phi).knobs)
    assert grid[4, 2:].tolist() == [lp.real, lp.imag, lm.real, lm.imag]


def test_riemann_surface_names_the_first_point_it_cannot_evaluate():
    with pytest.raises(DomainError, match=r"^quasienergy is not finite at phi=-0\.1, theta1=-0\.5 "):
        riemann_surface((-0.1, 0.1, 2), (-0.5, -0.3, 2), k=1e308)


def test_riemann_surface_rejects_degenerate_axis():
    with pytest.raises(ConfigError):
        riemann_surface((-0.1, 0.1, 1), (-0.5, -0.3, 3))


def test_surface_csv_layout():
    text = surface_csv(riemann_surface((-0.1, 0.1, 2), (-0.5, -0.4, 2)))
    lines = text.strip().split("\n")
    assert lines[0] == "phi,theta1,re_lp,im_lp,re_lm,im_lm"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_find_ep_frozen_location():
    # the EP lies on phi = 0 for every k, since dx != 0 whenever gamma != 0
    for k, theta1 in ((0.0, -0.2917760531146608), (0.01, -0.2893946656793739),
                      (0.02, -0.2817437286771233), (0.03, -0.26655969130919077)):
        loc = find_ep(k=k)
        assert loc.phi == 0.0, k
        assert loc.theta1 == pytest.approx(theta1, abs=1e-9), k
        assert loc.residual <= 1e-15, (k, loc)


def _bisect_200(theta1_box, theta2, gamma, k):
    """find_ep as it was: a math-module scan for the first bracket, then all 200 bisection steps."""
    def d0(theta1):
        return _reference_d_coefficients(WalkParams(theta1, theta2, 0.0, gamma, k)).d0

    grid = np.linspace(*theta1_box, spectrum.SCAN_POINTS).tolist()
    values = [d0(t) for t in grid]
    for target in (1.0, -1.0):
        hits = [i for i in range(spectrum.SCAN_POINTS - 1) if (values[i] - target) * (values[i + 1] - target) <= 0]
        if hits:
            break
    else:
        return None
    a, b = grid[hits[0]], grid[hits[0] + 1]
    fa = d0(a) - target
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = d0(m) - target
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    theta1 = 0.5 * (a + b)
    D0 = _reference_d_coefficients(WalkParams(theta1, theta2, 0.0, gamma, k)).D0
    return target, theta1, abs(D0 * D0 - 1.0)


# boxes anywhere, or around the +1 roots near theta1 = -0.29 and -0.13 or the -1 roots near 2.85 and 3.01
_BOX = st.one_of(
    st.tuples(st.floats(-3.5, 3.5), st.floats(1e-6, 3.0)).map(lambda lw: (lw[0], lw[0] + lw[1])),
    st.tuples(st.floats(-0.6, -0.3), st.floats(-0.28, 0.2)),
    st.tuples(st.floats(2.5, 2.84), st.floats(2.86, 3.3)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_BOX, st.floats(0.05, 0.4), st.floats(0.05, 0.5), st.floats(-0.04, 0.04))
@example((-0.5, -0.1), math.pi / 16, 0.2, 0.03)
@example((2.5, 3.1), math.pi / 16, 0.2, 0.0)  # no +1 root: the -1 root at 2.85
@example((2.9, 3.3), math.pi / 16, 0.2, 0.01)  # the -1 root at 3.01
@example((-0.5, -0.1), math.pi / 16, 0.001, 0.0)  # a pair of roots inside one scan cell
def test_find_ep_is_the_200_step_bisection(box, theta2, gamma, k):
    expected = _bisect_200(box, theta2, gamma, k)
    if expected is None:  # no sign change on the scan: the closed-form root nearest lo, if the box holds one
        roots = exceptional_points(box, theta2, gamma, k)
        if roots:
            assert find_ep(box, theta2, gamma, k).theta1 == pytest.approx(roots[0], abs=1e-9)
        else:
            with pytest.raises(NoBracket):
                find_ep(box, theta2, gamma, k)
        return
    target, theta1, residual = expected
    loc = find_ep(box, theta2, gamma, k)
    assert (loc.theta1.hex(), loc.residual.hex()) == (theta1.hex(), residual.hex()), target


def test_find_ep_stops_once_its_ends_are_adjacent(monkeypatch):
    calls = []
    d_arrays = spectrum.d_arrays

    def counted(theta1, *knobs):
        if np.ndim(theta1) == 0:  # the bisection's and the residual's calls, not the scan's
            calls.append(theta1)
        return d_arrays(theta1, *knobs)

    monkeypatch.setattr(spectrum, "d_arrays", counted)
    assert find_ep().theta1 == -0.2917760531146608
    assert 0 < len(calls) <= 50  # 200 bisection steps would make 202


def test_find_ep_no_bracket_without_gain():
    # with gain 0 |d0| never crosses 1; beyond |k| = 0.0409 it stays below 1
    for kwargs in ({"gamma": 0.0}, {"k": 0.05}, {"k": 0.1}):
        with pytest.raises(NoBracket):
            find_ep(**kwargs)


def test_point_in_polygon_square():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert point_in_polygon((0.5, 0.5), square)
    assert not point_in_polygon((1.5, 0.5), square)
    assert not point_in_polygon((-0.2, -0.2), square)
