"""Exact algebra: sympy proves the closed forms that walk.py evaluates in floats.

Each proof starts from the formula the code documents (walk._d_terms'
coefficients, coin_entries' M, u_step_array's layout and
control_operator_array's C and C^-1), so each sympy expression is also
evaluated at seeded points and compared with the code there, which ties the
proof to the code. The whole module takes about 4 s on 2 vCPU, sympy's import included.
"""
import itertools
import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from eploop.spectrum import exceptional_points  # noqa: E402
from eploop.walk import (  # noqa: E402
    WalkParams,
    coin_entries,
    control_operator_array,
    d_arrays,
    d_coefficients,
    u_step_array,
    walk_operator_product,
)

THETA1, THETA2, PHI, GAMMA, K = KNOBS = sp.symbols("theta1 theta2 phi gamma k", real=True)
# seeded points of all five knobs, in WalkParams' argument order
POINTS = np.random.default_rng(20261020).uniform([-math.pi, -math.pi, -1.0, 0.0, -1.0],
                                                 [math.pi, math.pi, 1.0, 0.6, 1.0], (6, 5))
# entries of M and of the coefficients are at most a few cosh(1.2), so rounding stays near 1e-15
TOL = 1e-12


def _rotation(t):
    return sp.Matrix([[sp.cos(t), -sp.sin(t)], [sp.sin(t), sp.cos(t)]])


def _product():
    """walk_operator_product's seven factors psi(phi) R(theta1/2) G S R(theta2) G^-1 S R(theta1/2)."""
    psi = sp.Matrix([[sp.cos(PHI), sp.I * sp.sin(PHI)], [sp.I * sp.sin(PHI), sp.cos(PHI)]])
    s = sp.diag(sp.exp(sp.I * K), sp.exp(-sp.I * K))
    g, g_inv = sp.diag(sp.exp(GAMMA), sp.exp(-GAMMA)), sp.diag(sp.exp(-GAMMA), sp.exp(GAMMA))
    return psi * _rotation(THETA1 / 2) * g * s * _rotation(THETA2) * g_inv * s * _rotation(THETA1 / 2)


def _d_terms():
    """(d0, dx, dy, dz) and (D0, DX, DY, DZ) as walk._d_terms writes them."""
    c1, s1, c2, s2 = sp.cos(THETA1), sp.sin(THETA1), sp.cos(THETA2), sp.sin(THETA2)
    c2k, ch = sp.cos(2 * K), sp.cosh(2 * GAMMA)
    d0, dx = c2k * c1 * c2 - ch * s1 * s2, -sp.sinh(2 * GAMMA) * s2
    dy, dz = -c2 * s1 * c2k - ch * c1 * s2, c2 * sp.sin(2 * K)
    cp, isp, s = sp.cos(PHI), sp.I * sp.sin(PHI), sp.sin(PHI)
    return (d0, dx, dy, dz), (cp * d0 + isp * dx, cp * dx + isp * d0, cp * dy + s * dz, cp * dz - s * dy)


def _closed():
    """coin_entries' M = ((D0 + i DZ, DX + DY), (DX - DY, D0 - i DZ))."""
    D0, DX, DY, DZ = _d_terms()[1]
    return sp.Matrix([[D0 + sp.I * DZ, DX + DY], [DX - DY, D0 - sp.I * DZ]])


def _is_zero(expr) -> bool:
    """expr is identically 0: as exponentials of the knobs it expands to 0, a Laurent-polynomial identity."""
    return sp.simplify(sp.expand(expr.rewrite(sp.exp))) == 0


def _at(expr, point) -> complex:
    return complex(expr.subs(dict(zip(KNOBS, point.tolist()))).evalf(30))


def test_closed_form_is_the_seven_factor_product():
    difference = _product() - _closed()
    assert all(_is_zero(entry) for entry in difference)
    # the expressions are the code's: sympy's product against walk_operator_product, its closed form
    # against coin_entries, at seeded points
    product, closed = _product(), _closed()
    for point in POINTS:
        code_product, code_closed = walk_operator_product(WalkParams(*point)), coin_entries(*point)
        for j in range(4):
            assert abs(_at(product[j], point) - code_product.flat[j]) < TOL
            assert abs(_at(closed[j], point) - complex(code_closed[j])) < TOL


def test_d_identity_and_unit_determinant():
    (d0, dx, dy, dz), (D0, DX, DY, DZ) = _d_terms()
    assert _is_zero(d0**2 - dx**2 + dy**2 + dz**2 - 1)
    assert _is_zero(D0**2 + DZ**2 - DX**2 + DY**2 - 1)
    assert _is_zero(_closed().det() - 1)  # so det M = 1 follows from the D-identity
    for point in POINTS:
        code = d_coefficients(WalkParams(*point))
        for expr, value in zip((d0, dx, dy, dz, D0, DX, DY, DZ),
                               (code.d0, code.dx, code.dy, code.dz, code.D0, code.DX, code.DY, code.DZ)):
            assert abs(_at(expr, point) - value) < TOL


# The control pair and u_step in the D-coefficients as free symbols: D0, X, Y, Z = DX, DY, DZ, sigma = sqrt(1 - D0^2),
# and J for the imaginary unit, so that every identity is a polynomial one over the integers.
D0, X, Y, Z, SIGMA, J = sp.symbols("D0 X Y Z sigma J")
_M = sp.Matrix([[D0 + J * Z, X + Y], [X - Y, D0 - J * Z]])
# the relations the symbols obey: J^2 = -1, sigma^2 = 1 - D0^2 and det M = 1 (the D-identity, proved above)
RELATIONS = sp.groebner([J**2 + 1, SIGMA**2 + D0**2 - 1, _M.det() - 1], J, SIGMA, D0, X, Y, Z, order="grevlex")


def _control_pair():
    """control_operator_array's documented C and C_inv, with s^2 = D0^2 - 1 = -sigma^2."""
    s2 = -SIGMA**2
    c = sp.Matrix([[J, 0, Z / SIGMA, -J * Z**2 / (SIGMA * (X - Y))],
                   [-Z / (X + Y), 0, J * (X - Y) / SIGMA, Z / SIGMA],
                   [0, 0, 0, -SIGMA / (X - Y)],
                   [J * Z / (X + Y), 1, 0, 0]])
    c_inv = sp.Matrix([[J * (Y**2 - X**2) / s2, Z * (X + Y) / s2, 0, 0],
                       [Z * (Y - X) / s2, -J * Z**2 / s2, 0, 1],
                       [Z / SIGMA, J * (X + Y) / SIGMA, -J * Z / SIGMA, 0],
                       [0, 0, (Y - X) / SIGMA, 0]])
    return c, c_inv


def _u_step():
    """u_step_array's layout: D0 on the diagonal, +W above and -W below, W = ((Z, i(X+Y)), (i(X-Y), -Z))."""
    w = sp.Matrix([[Z, J * (X + Y)], [J * (X - Y), -Z]])
    return D0 * sp.eye(4) + sp.Matrix.vstack(sp.Matrix.hstack(sp.zeros(2), w), sp.Matrix.hstack(-w, sp.zeros(2)))


def _vanishes(expr, relations=RELATIONS) -> bool:
    """expr's numerator lies in the ideal of the relations: expr is 0 wherever they hold and it is defined."""
    return relations.reduce(sp.expand(sp.numer(sp.together(expr))))[1] == 0


def _at_d(expr, d: tuple, sigma: complex) -> complex:
    """expr at the code's (D0, DX, DY, DZ) and sigma, evaluated to 30 digits."""
    return complex(sp.sympify(expr).subs({D0: d[0], X: d[1], Y: d[2], Z: d[3], SIGMA: sigma, J: sp.I}).evalf(30))


def test_control_pair_inverts_and_takes_i_x_m_to_u_step():
    # C C^-1 = I needs det M = 1 as well as sigma^2 = 1 - D0^2: entries (0, 0) and (1, 1) are (X^2 - Y^2 - Z^2)/s^2
    c, c_inv = _control_pair()
    assert all(_vanishes(entry) for entry in c * c_inv - sp.eye(4))
    assert all(_vanishes(entry) for entry in c * sp.diag(_M, _M) * c_inv - _u_step())
    without_det = sp.groebner([J**2 + 1, SIGMA**2 + D0**2 - 1], J, SIGMA, D0, X, Y, Z, order="grevlex")
    assert not _vanishes((c * c_inv)[0, 0] - 1, without_det)
    # the expressions are the code's: C, C^-1 and u_step against control_operator_array and u_step_array at
    # the seeded points, sigma being numpy's principal root as in the code. The code forms each entry of C and
    # C^-1 from the same (D0, DX, DY, DZ) in a few rounded operations, and |s| >= 0.69 at these points, so sigma
    # keeps all but a few bits: each entry is within a few eps of the matrix's largest one (measured: 0.84 eps of
    # a largest entry of at most 2.7)
    for point in POINTS:
        d = tuple(complex(v) for v in d_arrays(*point))
        sigma = complex(np.sqrt(1.0 - d[0] * d[0]))
        assert abs(np.sqrt(d[0] * d[0] - 1.0)) >= 0.69
        code = control_operator_array(*point)
        for exact, got in zip((c, c_inv, _u_step()), (*code, u_step_array(*point))):
            scale = np.abs(got).max()
            for j in range(16):
                assert abs(_at_d(exact[j], d, sigma) - got.flat[j]) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("sign", [1, -1])
def test_an_ep_is_two_2x2_jordan_blocks_exactly(sign):
    # at D0 = +-1, N = u - D0 I = ((0, W), (-W, 0)) with W^2 = (Z^2 - X^2 + Y^2) I = (1 - D0^2) I = 0
    n = _u_step().subs(D0, sign) - sign * sp.eye(4)
    at_ep = sp.groebner([J**2 + 1, (_M.det() - 1).subs(D0, sign)], J, X, Y, Z, order="grevlex")
    assert all(_vanishes(entry, at_ep) for entry in n * n)
    # rank N <= 2: every 3x3 minor vanishes; rank N >= 2: three 2x2 minors are Z^2, -(X+Y)^2 and -(X-Y)^2, which
    # vanish together only at X = Y = Z = 0, where M = D0 I = +-I is no EP (there dx != 0)
    rows = list(itertools.combinations(range(4), 3))
    assert all(_vanishes(n.extract(r, col).det(), at_ep) for r in rows for col in rows)
    minors = [n.extract(*idx).det().subs(J**2, -1) for idx in (([0, 2], [0, 2]), ([0, 2], [1, 3]), ([1, 3], [0, 2]))]
    assert [sp.expand(m) for m in minors] == [Z**2, sp.expand(-(X + Y)**2), sp.expand(-(X - Y)**2)]
    # tied to the code at the closed-form EPs of the default box with D0 = sign: u_step_array there is the
    # symbolic u at the code's coefficients, whose D0 is within 2 ulp of +-1
    default = WalkParams._field_defaults
    coin = (default["theta2"], default["gamma"], default["k"])
    points = [(t, coin[0], 0.0, *coin[1:]) for t in exceptional_points((-math.pi, math.pi), *coin)]
    points = [point for point in points if np.sign(d_arrays(*point)[0].real) == sign]
    assert points
    for point in points:
        d = tuple(complex(v) for v in d_arrays(*point))
        assert abs(d[0] - sign) <= 4.5e-16 and abs(d[1]) > 0.05  # dx != 0: not M = +-I
        got = u_step_array(*point)
        assert all(abs(_at_d(_u_step()[j], d, 0j) - got.flat[j]) <= 4 * np.finfo(float).eps for j in range(16))
