import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eploop.errors import SingularMatrix, TooCloseToEP
from eploop.spectrum import (
    EigenSystem,
    eigensystem,
    eigensystem_array,
    find_ep,
    quasienergy_array,
)
from eploop.walk import (
    EP_GUARD,
    DCoefficients,
    WalkParams,
    _d_terms,
    _float_coin_terms,
    _libm,
    coin_entries,
    control_operator,
    control_operator_array,
    d_arrays,
    d_coefficients,
    gain_loss,
    gain_loss_inverse,
    phase_shift,
    rotation,
    symmetry_break,
    u_step,
    u_step_array,
    walk_operator_closed,
    walk_operator_closed_array,
    walk_operator_product,
)

START = WalkParams(theta1=-0.6)


def random_params(rng):
    return WalkParams(
        theta1=rng.uniform(-1.5, 1.5),
        theta2=rng.uniform(-1.5, 1.5),
        phi=rng.uniform(-1.0, 1.0),
        gamma=rng.uniform(0.0, 0.5),
        k=rng.uniform(-1.0, 1.0),
    )


def test_walk_params_defaults():
    assert START.theta2 == pytest.approx(math.pi / 16)
    assert START.phi == 0.0
    assert START.gamma == 0.2
    assert START.k == 0.0


def test_rotation_matrix():
    assert np.allclose(rotation(math.pi / 2), [[0, -1], [1, 0]], atol=1e-15)
    th = 0.37
    r = rotation(th)
    assert np.allclose(r @ r.T.conj(), np.eye(2), atol=1e-15)
    assert r[0, 0] == pytest.approx(math.cos(th))
    assert r[1, 0] == pytest.approx(math.sin(th))


def test_phase_shift_diagonal():
    s = phase_shift(0.3)
    assert np.allclose(np.diag(s), [np.exp(0.3j), np.exp(-0.3j)])
    assert s[0, 1] == 0 and s[1, 0] == 0


def test_gain_loss_and_inverse():
    g = gain_loss(0.2)
    assert np.allclose(np.diag(g), [1.2214027581601699, 0.8187307530779818])
    assert np.allclose(g @ gain_loss_inverse(0.2), np.eye(2), atol=1e-15)


def test_symmetry_break_structure():
    ps = symmetry_break(0.25)
    assert ps[0, 0] == pytest.approx(math.cos(0.25))
    assert ps[0, 1] == pytest.approx(1j * math.sin(0.25))
    assert ps[1, 0] == pytest.approx(1j * math.sin(0.25))
    assert ps[1, 1] == pytest.approx(math.cos(0.25))


def test_d_coefficients_at_start_point():
    d = d_coefficients(START)
    assert d.d0 == pytest.approx(0.928563935505873, abs=1e-12)
    assert d.dx == pytest.approx(-0.0801338035097449, abs=1e-12)
    assert d.dy == pytest.approx(0.37972416849969315, abs=1e-12)
    assert d.dz == 0.0
    # phi = 0 collapses the dressed coefficients onto the bare ones
    assert d.D0 == pytest.approx(d.d0)
    assert d.DX == pytest.approx(d.dx)
    # Python numbers, so that arithmetic on the fields is CPython's, not numpy's
    assert [type(v) for v in astuple(d)] == [float, float, float, float, complex, complex, float, float]


def test_coefficient_identities_random():
    rng = np.random.default_rng(10)
    for _ in range(300):
        d = d_coefficients(random_params(rng))
        assert d.d_identity_residual() < 1e-12
        assert d.D_identity_residual() < 1e-12


def test_product_matches_closed_form_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = random_params(rng)
        assert np.max(np.abs(walk_operator_product(p) - walk_operator_closed(p))) < 1e-12


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_EP_THETA1 = find_ep().theta1
# every knob over its domain, plus default-knob points within 1e-9 of the EP at phi = 0
_KNOBS = st.one_of(
    st.tuples(_ANGLE, _ANGLE, _ANGLE, st.floats(-3.0, 3.0), _ANGLE),
    st.tuples(st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)).map(
        lambda d: (_EP_THETA1 + d[0], math.pi / 16, d[1], 0.2, 0.0)),
)


# The scalar bodies the array forms replaced, kept as bitwise references.
def _reference_d_coefficients(p: WalkParams) -> DCoefficients:
    c2k = math.cos(2 * p.k)
    ch = math.cosh(2 * p.gamma)
    d0 = c2k * math.cos(p.theta1) * math.cos(p.theta2) - ch * math.sin(p.theta1) * math.sin(p.theta2)
    dx = -math.sinh(2 * p.gamma) * math.sin(p.theta2)
    dy = -math.cos(p.theta2) * math.sin(p.theta1) * c2k - ch * math.cos(p.theta1) * math.sin(p.theta2)
    dz = math.cos(p.theta2) * math.sin(2 * p.k)
    cp, sp = math.cos(p.phi), math.sin(p.phi)
    return DCoefficients(
        d0=d0, dx=dx, dy=dy, dz=dz,
        D0=cp * d0 + 1j * sp * dx,
        DX=cp * dx + 1j * sp * d0,
        DY=cp * dy + sp * dz,
        DZ=cp * dz - sp * dy,
    )


def _reference_walk_operator_closed(p: WalkParams) -> np.ndarray:
    d = _reference_d_coefficients(p)
    return np.array(
        [[d.D0 + 1j * d.DZ, d.DX + d.DY], [d.DX - d.DY, d.D0 - 1j * d.DZ]],
        dtype=complex,
    )


def _reference_u_step(p: WalkParams) -> np.ndarray:
    d = _reference_d_coefficients(p)
    w = np.array(
        [[d.DZ, 1j * (d.DX + d.DY)], [1j * (d.DX - d.DY), -d.DZ]],
        dtype=complex,
    )
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = u[2, 2] = u[3, 3] = d.D0
    u[:2, 2:] = w
    u[2:, :2] = -w
    return u


def _reference_quasienergy(p: WalkParams) -> tuple[complex, complex]:
    def principal(eta):
        lam = 1j * np.log(eta)
        if lam.real <= -math.pi:
            lam += 2 * math.pi
        return complex(lam)

    D0 = _reference_d_coefficients(p).D0
    s = np.sqrt(complex(D0 * D0 - 1.0))
    return principal(D0 + s), principal(D0 - s)


def _reference_eigensystem(p: WalkParams) -> EigenSystem:
    d = _reference_d_coefficients(p)
    s = np.sqrt(complex(d.D0 * d.D0 - 1.0))
    if abs(s) <= EP_GUARD:
        raise TooCloseToEP(f"|eta - D0| = {abs(s):.3e} at {p}")
    rt2 = math.sqrt(2)

    def a12(c):
        return np.array([1j * (d.DX + d.DY), -d.DZ, 0.0, c], dtype=complex) / (rt2 * c)

    def a34(c):
        return np.array([d.DZ, 1j * (d.DX - d.DY), c, 0.0], dtype=complex) / (rt2 * c)

    def b12(c):
        return (np.array([-1j * (d.DX - d.DY), d.DZ, 0.0, c], dtype=complex) / (rt2 * c)).conj()

    def b34(c):
        return (np.array([-d.DZ, -1j * (d.DX + d.DY), c, 0.0], dtype=complex) / (rt2 * c)).conj()

    return EigenSystem(
        eta_plus=complex(d.D0 + s),
        eta_minus=complex(d.D0 - s),
        alpha=(a12(s), a12(-s), a34(-s), a34(s)),
        beta=(b12(s), b12(-s), b34(-s), b34(s)),
    )


def _reference_control_operator(p: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    d = _reference_d_coefficients(p)
    X, Y, Z = d.DX, d.DY, d.DZ
    s2 = d.D0 * d.D0 - 1.0
    s = np.sqrt(complex(s2))
    if abs(s) <= EP_GUARD:
        raise TooCloseToEP(f"|eta - D0| = {abs(s):.3e} at {p}")
    plus, minus = X + Y, X - Y
    det_b = abs(plus * minus) / abs(s2)
    scale = (max(abs(plus), abs(minus), abs(s + 1j * Z), abs(s - 1j * Z)) / (math.sqrt(2) * abs(s))) ** 4
    if det_b <= 1e-12 * scale:
        raise SingularMatrix(f"|det| = {det_b:.3e} below threshold {1e-12 * scale:.3e}")
    sigma = np.sqrt(complex(1.0 - d.D0 * d.D0))
    C = np.array([[1j, 0, Z / sigma, -1j * Z * Z / (sigma * minus)],
                  [-Z / plus, 0, 1j * minus / sigma, Z / sigma],
                  [0, 0, 0, -sigma / minus],
                  [1j * Z / plus, 1, 0, 0]], dtype=complex)
    C_inv = np.array([[-1j * plus * minus / s2, Z * plus / s2, 0, 0],
                      [-Z * minus / s2, -1j * Z * Z / s2, 0, 1],
                      [Z / sigma, 1j * plus / sigma, -1j * Z / sigma, 0],
                      [0, 0, -minus / sigma, 0]], dtype=complex)
    return C, C_inv


def _bits(*values) -> list[bytes]:
    """The bytes of each value as a complex array: bitwise equality, signed zeros included."""
    return [np.asarray(v, dtype=complex).tobytes() for v in values]


def _outcome(fn, p, bits):
    """bits of fn(p) (a list), or the (type, message) tuple of the guard error it raises."""
    try:
        return bits(fn(p))
    except (TooCloseToEP, SingularMatrix) as exc:
        return type(exc), str(exc)


# (array form, its one-row case, the scalar reference, bits of one result, bits of row j of the array result)
_GUARDED_FORMS = (
    (eigensystem_array, eigensystem, _reference_eigensystem,
     lambda es: _bits(es.eta_plus, es.eta_minus, es.alpha, es.beta),
     lambda out, j: _bits(out[0][j, 0], out[0][j, 1], out[1][j], out[2][j])),
    (control_operator_array, control_operator, _reference_control_operator,
     lambda pair: _bits(*pair),
     lambda out, j: _bits(out[0][j], out[1][j])),
)
SINGULAR_COIN = WalkParams(theta1=-0.3508237905748691, k=0.3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_KNOBS, min_size=1, max_size=6))
@example([START.knobs, SINGULAR_COIN.knobs])
def test_array_forms_match_the_scalar_operators(points):
    knobs = np.array(points).T
    d = np.array(d_arrays(*knobs))
    m, u, lam = walk_operator_closed_array(*knobs), u_step_array(*knobs), quasienergy_array(*knobs)
    params = [WalkParams(*values) for values in points]
    for j, p in enumerate(params):
        c = _reference_d_coefficients(p)
        assert _bits(*astuple(d_coefficients(p))) == _bits(*astuple(c))
        assert _bits(*d[:, j]) == _bits(c.D0, c.DX, c.DY, c.DZ)
        assert _bits(m[j]) == _bits(walk_operator_closed(p)) == _bits(_reference_walk_operator_closed(p))
        assert _bits(u[j]) == _bits(u_step(p)) == _bits(_reference_u_step(p))
        assert _bits(lam[:, j]) == _bits(quasienergy_array(*p.knobs)) == _bits(_reference_quasienergy(p))
    assert np.stack(coin_entries(*knobs), axis=-1).reshape(m.shape).tobytes() == m.tobytes()  # M's one formula
    # eigensystem and the control pair: equal row by row, or the first failing row's guard error
    for array_form, one_row, reference, bits, row_bits in _GUARDED_FORMS:
        expected = [_outcome(reference, p, bits) for p in params]
        assert [_outcome(one_row, p, bits) for p in params] == expected
        errors = [e for e in expected if isinstance(e, tuple)]
        if errors:
            with pytest.raises(errors[0][0], match=f"^{re.escape(errors[0][1])}$"):
                array_form(*knobs)
        else:
            out = array_form(*knobs)
            assert [row_bits(out, j) for j in range(len(params))] == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.floats(-3.0, 3.0), st.floats(-350.0, 350.0), st.floats(-1e-300, 1e-300)),
       st.tuples(_ANGLE, _ANGLE, _ANGLE))
def test_libm_scalar_path_is_its_array_path(gamma, angles):
    for fn in (math.cosh, math.sinh):
        value = _libm(fn, 2 * gamma)
        assert type(value) is float
        assert value == _libm(fn, np.array([2 * gamma]))[0] == _libm(fn, np.float64(2 * gamma))
    theta1, theta2, phi = angles
    scalar = walk_operator_closed_array(np.array([theta1]), theta2, np.array([phi]), gamma, 0.0)
    array = walk_operator_closed_array(np.array([theta1]), np.array([theta2]), np.array([phi]),
                                       np.array([gamma]), np.array([0.0]))
    assert scalar.tobytes() == array.tobytes()


_COIN_KNOB = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COIN_KNOB, _COIN_KNOB, _COIN_KNOB), min_size=1, max_size=8),
       st.tuples(_ANGLE, _ANGLE))
@example(list(itertools.product([0.0, -0.0], repeat=3)), (-0.6, 0.0))
def test_float_coins_are_cached_by_their_bits(coins, angles):
    """_d_terms takes the coin terms of three Python floats from a cache keyed on their bits, so 0.0 and
    -0.0 stay apart (a float-keyed cache returned dz = 0.0 for k = -0.0); np.float64 and (1,) knobs bypass
    it. Every value is bitwise the uncached one, on the first call of a coin and on the cached repeat."""
    theta1, phi = np.array([angles[0], 0.3, -1.1]), angles[1]
    for theta2, gamma, k in coins:
        fresh = [_d_terms(theta1, wrap(theta2), phi, wrap(gamma), wrap(k)) for wrap in (np.float64, np.atleast_1d)]
        hits = _float_coin_terms.cache_info().hits
        for _ in range(2):  # a miss or a hit, then a hit
            cached = _d_terms(theta1, theta2, phi, gamma, k)
            assert _bits(*cached) == _bits(*fresh[0]) == _bits(*fresh[1])
        assert _float_coin_terms.cache_info().hits > hits
        columns = np.broadcast_arrays(*cached)
        for j, t1 in enumerate(theta1.tolist()):
            p = WalkParams(t1, theta2, phi, gamma, k)
            assert _bits(*(v[j] for v in columns)) == _bits(*astuple(_reference_d_coefficients(p)))


def test_coins_that_can_warn_bypass_the_cache():
    """A Python-float coin with a non-finite theta2, 2gamma or 2k is computed afresh on every call, so every
    call warns as a fresh one does; the cache holds only coins whose terms raise no floating-point warning."""
    info = _float_coin_terms.cache_info()
    for theta2, gamma, k in ((0.1, 0.2, 1e308), (math.inf, 0.2, 0.0), (0.0, 1e308, 0.0), (0.1, math.nan, -0.0)):
        caught = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                terms = _d_terms(np.array([0.3, -0.2]), theta2, 0.1, gamma, k)
            caught.append([str(w.message) for w in records])
            with np.errstate(all="ignore"):
                fresh = _d_terms(np.array([0.3, -0.2]), theta2, 0.1, gamma, np.atleast_1d(k))
            assert _bits(*terms) == _bits(*fresh)
        assert caught[0] == caught[1] and bool(caught[0]) != math.isnan(gamma)  # a NaN spreads without a warning
    assert _float_coin_terms.cache_info()[1:] == info[1:]  # no miss and no entry added (hits may differ)


def test_coin_cache_is_empty_after_import():
    code = "import eploop; from eploop import walk; print(walk._float_coin_terms.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


_DOUBLES = st.floats(-1e300, 1e300)  # subnormals and both zeros included
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 1e-300, 1e300, -1e300]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DOUBLES, _DOUBLES), min_size=1, max_size=40))
@example(list(zip(_EDGES, reversed(_EDGES))))
def test_numpy_sin_cos_and_hypot_are_cpythons_bit_for_bit(pairs):
    """np.sin and np.cos of arrays and of scalars are math.sin and math.cos, and np.hypot(re, im)
    is abs(complex(re, im)), bit for bit: d_arrays, loops._circle and every magnitude of a complex
    array rely on it. Where numpy's bits differ, a per-element detour stays: walk._libm for cosh
    and sinh, math.log and float ** 2 in the propagation core's step records, and walk.cpython_mul
    and walk._cpython_div for complex products and quotients."""
    xs, ys = (list(v) for v in zip(*pairs))
    for np_fn, libm_fn in ((np.sin, math.sin), (np.cos, math.cos)):
        expected = [libm_fn(x).hex() for x in xs]
        assert [v.hex() for v in np_fn(np.array(xs)).tolist()] == expected
        assert [float(np_fn(x)).hex() for x in xs] == expected
    assert [v.hex() for v in np.hypot(np.array(xs), np.array(ys)).tolist()] == [abs(complex(x, y)).hex()
                                                                                for x, y in pairs]


def test_trace_is_twice_d0():
    d = d_coefficients(START)
    assert np.trace(walk_operator_closed(START)) == pytest.approx(2 * d.D0)


def test_eta_pair_at_start():
    es = eigensystem(START)
    ep, em = es.eta_plus, es.eta_minus
    assert ep == pytest.approx(0.928563935505873 + 0.37117249046480383j, abs=1e-12)
    assert ep * em == pytest.approx(1.0, abs=1e-12)


def _spectral_distance(a, b):
    pool = list(b)
    worst = 0.0
    for z in a:
        j = int(np.argmin([abs(z - w) for w in pool]))
        worst = max(worst, abs(z - pool.pop(j)))
    return worst


def test_u_step_spectrum_equals_two_particle_operator():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = random_params(rng)
        u = u_step(p)
        m4 = np.kron(np.eye(2), walk_operator_closed(p))
        assert _spectral_distance(np.linalg.eigvals(u), np.linalg.eigvals(m4)) < 1e-12


def test_u_step_diagonal_layout():
    u = u_step(START)
    d = d_coefficients(START)
    assert np.allclose(np.diag(u), [d.D0] * 4)
    # antisymmetric off-diagonal blocks
    assert np.allclose(u[:2, 2:], -u[2:, :2])


def test_control_operator_similarity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = random_params(rng)
        try:
            c, c_inv = control_operator(p)
        except TooCloseToEP:
            continue
        m4 = np.kron(np.eye(2), walk_operator_closed(p))
        assert np.max(np.abs(c @ m4 @ c_inv - u_step(p))) < 1e-8
        assert np.max(np.abs(c @ c_inv - np.eye(4))) < 1e-10


def test_control_operator_guards_near_coalescence():
    with pytest.raises(TooCloseToEP):
        control_operator(WalkParams(theta1=-0.2917760531146608))


def test_control_operator_guards_singular_coin_basis():
    # far from the EP (|eta - D0| ~ 0.55) but DX + DY ~ 1e-17, so the coin
    # eigenvector basis B is singular and C = A B^-1 has no finite value
    p = SINGULAR_COIN
    d = d_coefficients(p)
    assert abs(d.DX + d.DY) < 1e-15
    assert abs(np.sqrt(complex(d.D0 * d.D0 - 1.0))) > 0.5
    with pytest.raises(SingularMatrix):
        control_operator(p)


def test_control_operator_guard_scale_refuses_a_basis_far_from_the_eps():
    # |eta - D0| = 0.235, far outside EP_GUARD, and |det B| = 3.8e-11 is above the threshold's floor 2.5e-13
    # (1e-12 max|B|^4 with max|B| = 1/sqrt(2)), yet DX + DY ~ 1e-13: only the max|B|^4 scale refuses this
    # point. With the threshold held at its floor, C comes back 3.4e-2 off the 50-digit reference.
    p = WalkParams(theta1=-2.973689939217915, theta2=0.493714208735262, phi=0.0, gamma=1.910592653156368,
                   k=-0.13491773532474194)
    d = d_coefficients(p)
    assert abs(d.DX + d.DY) < 1e-12 and abs(np.sqrt(complex(d.D0 * d.D0 - 1.0))) > 0.2
    with pytest.raises(SingularMatrix, match=r"^\|det\| = 3\.835e-11 below threshold 1\.801e-05$"):
        control_operator(p)


def test_control_inverse_matches_reference_start_value():
    reference = np.array(
        [
            [-1j, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0.8071j, 0, 0],
            [0, 0, 1.2389, 0],
        ],
        dtype=complex,
    )
    _, c_inv = control_operator(START)
    assert np.max(np.abs(c_inv - reference)) < 1e-3
