"""How far the floats keep the closed forms' identities near the EPs, against a 50-digit mpmath reference.

s = eta - D0 = sqrt(D0^2 - 1) is formed from D0^2 - 1, which cancels near an
EP, so its relative error grows like eps/|s|^2. The eigenvectors carry 1/s and
the control pair divides by s^2 and sigma = sqrt(1 - D0^2), so every output's
error scales the same way. Each check below is C_TOL eps/|s|^2 with
C_TOL = 8: over this test's draws and 523 more of its domain, the largest
measured ratios to eps/|s|^2 were 2.0 (biorthonormality), 1.6 (the
eigensystem against mpmath), 3.2 (C (I x M) C^-1 - u_step) and 2.7 (the
control pair against mpmath).
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

mpmath = pytest.importorskip("mpmath")

from eploop.errors import SingularMatrix  # noqa: E402
from eploop.spectrum import eigensystem, eigensystem_array, exceptional_points  # noqa: E402
from eploop.walk import (  # noqa: E402
    EP_GUARD,
    WalkParams,
    control_operator,
    control_operator_array,
    d_arrays,
    ep_gap,
    u_step,
    u_step_array,
    walk_operator_closed,
    walk_operator_closed_array,
)

EPS = float(np.finfo(float).eps)
C_TOL = 8.0
MP = mpmath.MPContext()
MP.dps = 50


def _mp_d(theta1, theta2, phi, gamma, k):
    """(D0, DX, DY, DZ) of walk._d_terms' formulas at 50 digits, from the same doubles."""
    t1, t2, f, g, kk = (MP.mpf(v) for v in (theta1, theta2, phi, gamma, k))
    c1, s1, c2, s2, c2k, ch = MP.cos(t1), MP.sin(t1), MP.cos(t2), MP.sin(t2), MP.cos(2 * kk), MP.cosh(2 * g)
    d0, dx = c2k * c1 * c2 - ch * s1 * s2, -MP.sinh(2 * g) * s2
    dy, dz = -c2 * s1 * c2k - ch * c1 * s2, c2 * MP.sin(2 * kk)
    cp, sp = MP.cos(f), MP.sin(f)
    return cp * d0 + 1j * sp * dx, cp * dx + 1j * sp * d0, cp * dy + sp * dz, cp * dz - sp * dy


def _mp_eigensystem(D, s):
    """eigensystem_array's documented rows at 50 digits: (eta+, eta-), alpha and beta."""
    D0, DX, DY, DZ = D
    alpha, beta = [], []
    for j, c in enumerate((s, -s, -s, s)):
        if j < 2:
            a, b = [1j * (DX + DY), -DZ, 0, c], [-1j * (DX - DY), DZ, 0, c]
        else:
            a, b = [DZ, 1j * (DX - DY), c, 0], [-DZ, -1j * (DX + DY), c, 0]
        alpha.append([x / (MP.sqrt(2) * c) for x in a])
        beta.append([MP.conj(x / (MP.sqrt(2) * c)) for x in b])
    return MP.matrix([[D0 + s, D0 - s]]), MP.matrix(alpha), MP.matrix(beta)


def _mp_control(D, sigma):
    """control_operator_array's documented C and C_inv at 50 digits."""
    D0, X, Y, Z = D
    s2 = D0 * D0 - 1
    C = [[1j, 0, Z / sigma, -1j * Z * Z / (sigma * (X - Y))], [-Z / (X + Y), 0, 1j * (X - Y) / sigma, Z / sigma],
         [0, 0, 0, -sigma / (X - Y)], [1j * Z / (X + Y), 1, 0, 0]]
    C_inv = [[1j * (Y * Y - X * X) / s2, Z * (X + Y) / s2, 0, 0], [Z * (Y - X) / s2, -1j * Z * Z / s2, 0, 1],
             [Z / sigma, 1j * (X + Y) / sigma, -1j * Z / sigma, 0], [0, 0, (Y - X) / sigma, 0]]
    return MP.matrix(C), MP.matrix(C_inv)


def _mp_step(D):
    """u_step and I (x) M of their documented layouts at 50 digits."""
    D0, X, Y, Z = D
    u = MP.diag([D0] * 4)
    u[0, 2], u[0, 3], u[1, 2], u[1, 3] = Z, 1j * (X + Y), 1j * (X - Y), -Z
    u[2, 0], u[2, 1], u[3, 0], u[3, 1] = -Z, -1j * (X + Y), -1j * (X - Y), Z
    m = MP.zeros(4)
    for b in (0, 2):
        m[b, b], m[b, b + 1], m[b + 1, b], m[b + 1, b + 1] = D0 + 1j * Z, X + Y, X - Y, D0 - 1j * Z
    return u, m


def _np(m) -> np.ndarray:
    return np.array(m.tolist(), dtype=complex)


def _nearer(root, ref: complex):
    """The square root, root or -root, that the floats took (their branch can differ on the cut)."""
    return root if abs(complex(root) - ref) <= abs(complex(-root) - ref) else -root


def _rel_err(got: np.ndarray, exact) -> float:
    exact = _np(exact)
    return float(np.abs(got - exact).max() / np.abs(exact).max())


def _near_ep(coin, which, angle, target):
    """Knobs at |s| about target from the which-th EP on phi = 0 in [-pi, pi], along angle in the (theta1, phi)
    plane: there D0^2 - 1 = 2 D0 (d0' dtheta1 + i dx dphi) to first order, with D0 = +-1."""
    theta2, gamma, k = coin
    eps = exceptional_points((-math.pi, math.pi), theta2, gamma, k)
    assume(eps)
    theta1 = eps[which % len(eps)]
    d0 = d_arrays(np.array([theta1 - 1e-7, theta1 + 1e-7]), theta2, 0.0, gamma, k)[0].real
    slope = (d0[1] - d0[0]) / 2e-7
    grad = abs(complex(slope * math.cos(angle), -math.sinh(2 * gamma) * math.sin(theta2) * math.sin(angle)))
    t = target**2 / (2 * grad)
    return theta1 + t * math.cos(angle), theta2, t * math.sin(angle), gamma, k


_DEFAULT = WalkParams(theta1=0.0)
_COIN = (_DEFAULT.theta2, _DEFAULT.gamma, _DEFAULT.k)
_COINS = st.tuples(st.floats(0.05, 0.6), st.floats(0.02, 0.6), st.floats(-0.04, 0.04))  # (theta2, gamma, k)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_COINS)
@example(_COIN)
@example((_COIN[0], 0.001, 0.0))  # a pair 7.8e-4 wide
def test_closed_form_eps_are_the_50_digit_roots(coin):
    # each root within 4 ulp of pi of the 50-digit theta1 = -delta +- arccos(+-1/R) (measured: 1.5 over 500 coins)
    t2, g, k = (MP.mpf(v) for v in coin)
    a, b = MP.cos(2 * k) * MP.cos(t2), MP.cosh(2 * g) * MP.sin(t2)
    r, delta = MP.sqrt(a * a + b * b), MP.atan2(b, a)
    exact = [] if r < 1 else sorted(
        t for t in (-delta + sign * MP.acos(target / r) + n * 2 * MP.pi
                    for target in (1, -1) for sign in (1, -1) for n in (-1, 0, 1)) if -MP.pi <= t <= MP.pi)
    roots = exceptional_points((-math.pi, math.pi), *coin)
    assert len(roots) == len(exact)
    assert all(abs(MP.mpf(got) - want) <= 4 * math.ulp(math.pi) for got, want in zip(roots, exact))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_COINS, st.integers(0, 3),
       st.floats(0.0, 2 * math.pi), st.sampled_from([1e-1, 1e-2, 1e-3, 1.1 * EP_GUARD]))
@example(_COIN, 0, 0.0, 1e-3)  # the default box's two EPs, along phi = 0 from either side
@example(_COIN, 1, math.pi, 1.1 * EP_GUARD)
def test_closed_forms_near_both_eps_keep_their_identities_to_c_eps_over_s_squared(coin, which, angle, target):
    knobs = _near_ep(coin, which, angle, target)
    rows = tuple(np.array([v]) for v in knobs)
    s = complex(ep_gap(d_arrays(*knobs)[0]))
    assert abs(s) > EP_GUARD  # at 1.1 EP_GUARD, the first-order step lands within 1e-7 (relative) of its target
    tol = C_TOL * EPS / abs(s) ** 2
    D = _mp_d(*knobs)
    eta, alpha, beta = (a[0] for a in eigensystem_array(*rows))
    assert np.abs(beta.conj() @ alpha.T - np.eye(4)).max() <= tol
    eta_mp, alpha_mp, beta_mp = _mp_eigensystem(D, _nearer(MP.sqrt(D[0] ** 2 - 1), s))
    assert MP.mnorm(beta_mp.apply(MP.conj) * alpha_mp.T - MP.eye(4), 1) < 1e-40  # the documented rows are exact
    assert max(_rel_err(eta, eta_mp), _rel_err(alpha, alpha_mp), _rel_err(beta, beta_mp)) <= tol

    try:
        c, c_inv = (a[0] for a in control_operator_array(*rows))
    except SingularMatrix:  # the det(B) test refuses near an EP above EP_GUARD when |X -/+ Y| is large (README)
        return
    m4 = np.kron(np.eye(2), walk_operator_closed_array(*knobs))
    assert np.abs(c @ m4 @ c_inv - u_step_array(*knobs)).max() <= tol
    sigma = MP.sqrt(1 - D[0] ** 2)
    c_mp, c_inv_mp = min((_mp_control(D, root) for root in (sigma, -sigma)), key=lambda pair: _rel_err(c, pair[0]))
    u_mp, m4_mp = _mp_step(D)
    assert MP.mnorm(c_mp * m4_mp * c_inv_mp - u_mp, 1) < 1e-40  # det M = 1 holds exactly at 50 digits
    assert np.abs(_np(u_mp) - u_step_array(*knobs)).max() < 1e-14  # the mp layouts are the code's
    assert np.abs(_np(m4_mp) - m4).max() < 1e-14
    assert max(_rel_err(c, c_mp), _rel_err(c_inv, c_inv_mp)) <= tol


# Three seeded-draw tests assert fixed bounds: biorthonormality < 1e-9 (test_acceptance::test_criterion_03_… and
# test_spectrum::test_eigensystem_biorthonormal), and C (I x M) C^-1 - u_step < 1e-8 and C C^-1 - I < 1e-10
# (test_walk::test_control_operator_similarity). C_TOL eps/|s|^2 lies within a bound b where
# |s| >= sqrt(C_TOL eps / b): from 1.3e-3, 4.2e-4 and 4.2e-3. Their draws have |s| >= 0.27; below those gaps,
# down to the guard, the residuals hold only to C_TOL eps/|s|^2, which the next test checks.
FIXED_BOUNDS = (1e-9, 1e-8, 1e-10)
FIXED_BOUND_GAP = max(math.sqrt(C_TOL * EPS / bound) for bound in FIXED_BOUNDS)  # 4.2e-3


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_COINS, st.integers(0, 3), st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0))
@example(_COIN, 0, 0.0, 0.0)  # the default box's two EPs, from either end of the range
@example(_COIN, 1, math.pi, 1.0)
def test_the_fixed_bound_identities_keep_c_eps_over_s_squared_from_the_guard_up(coin, which, angle, u):
    """The three residuals of the fixed-bound tests, each in that test's own form, at |s| log-uniform from just
    outside EP_GUARD to FIXED_BOUND_GAP. Over 2,640 random draws of this domain the largest ratios to
    eps/|s|^2 were 1.9 (biorthonormality), 4.0 (C (I x M) C^-1 - u_step) and 3.8 (C C^-1 - I)."""
    lo = 1.1 * EP_GUARD
    p = WalkParams(*_near_ep(coin, which, angle, lo * (FIXED_BOUND_GAP / lo) ** u))
    s = abs(complex(ep_gap(d_arrays(*p)[0])))
    assert EP_GUARD < s < 1.01 * FIXED_BOUND_GAP
    tol = C_TOL * EPS / s**2
    es = eigensystem(p)
    gram = np.array([[np.vdot(es.beta[i], es.alpha[j]) for j in range(4)] for i in range(4)])
    assert np.abs(gram - np.eye(4)).max() <= tol
    try:
        c, c_inv = control_operator(p)
    except SingularMatrix:  # the det(B) test refuses near an EP above EP_GUARD when |X -/+ Y| is large (README)
        return
    m4 = np.kron(np.eye(2), walk_operator_closed(p))
    assert np.abs(c @ m4 @ c_inv - u_step(p)).max() <= tol
    assert np.abs(c @ c_inv - np.eye(4)).max() <= tol
