"""Exact algebra: sympy proves the closed forms that walk.py evaluates in floats.

Each proof starts from the formula the code documents (walk._d_terms'
coefficients and coin_entries' M), so each sympy expression is also evaluated
at seeded points and compared with the code there, which ties the proof to
the code.
"""
import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from eploop.walk import WalkParams, coin_entries, d_coefficients, walk_operator_product  # noqa: E402

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
