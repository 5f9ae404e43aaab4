"""One-step evolution operators of the non-Hermitian quantum walk.

A single step on one particle's two-dimensional coin space is

    M = psi(phi) R(theta1/2) G S R(theta2) G^-1 S R(theta1/2)

built from rotations R, the momentum phase S, the gain/loss pair G/G^-1 and
the symmetry-breaking operator psi. The same step has a closed form through
eight scalar coefficients (d0, dx, dy, dz) and their phi-mixed complex
counterparts (D0, DX, DY, DZ), which tests check against the product.
The two-particle step I (x) M is similar to a closed-form 4x4 operator
u_step whose eigenstates are near-Bell, with the similarity transform given
by the control operator C.

The closed forms work elementwise over broadcastable arrays of the five
knobs, and the coefficient formula lives in _d_terms alone: d_coefficients,
walk_operator_closed, u_step and control_operator are only the one-row cases
of _d_terms, walk_operator_closed_array, u_step_array and
control_operator_array. M's entries are written once, in coin_entries, and
the terms that theta1 and phi do not enter are cached per coin (_coin_terms).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix, TooCloseToEP

EP_GUARD = 2.0 ** -13  # eps ** (1/4): where |s|^2 = |D0^2 - 1| <= sqrt(eps), half the digits are gone (README)


class WalkParams(NamedTuple):
    """The five scalar knobs of one walk step (angles in radians). The defaults are in _field_defaults:
    a NamedTuple's class attributes are its field descriptors."""

    theta1: float
    theta2: float = math.pi / 16
    phi: float = 0.0
    gamma: float = 0.2
    k: float = 0.0

    @property
    def knobs(self) -> tuple[float, float, float, float, float]:
        """(theta1, theta2, phi, gamma, k), the argument order of the array forms."""
        return tuple(self)


class DCoefficients(NamedTuple):
    """Step-operator coefficients: real d-quadruple and complex D-quadruple."""

    d0: float
    dx: float
    dy: float
    dz: float
    D0: complex
    DX: complex
    DY: complex
    DZ: complex

    def d_identity_residual(self) -> float:
        """|d0^2 - dx^2 + dy^2 + dz^2 - 1|, zero for any valid parameters."""
        return abs(self.d0**2 - self.dx**2 + self.dy**2 + self.dz**2 - 1.0)

    def D_identity_residual(self) -> float:
        """|D0^2 + DZ^2 - DX^2 + DY^2 - 1|, the det = 1 consequence."""
        return abs(self.D0**2 + self.DZ**2 - self.DX**2 + self.DY**2 - 1.0)


def rotation(theta: float) -> np.ndarray:
    """Real rotation R(theta) with det = 1."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def phase_shift(k: float) -> np.ndarray:
    """Momentum phase S(k) = diag(e^{ik}, e^{-ik})."""
    return np.diag([np.exp(1j * k), np.exp(-1j * k)])


def gain_loss(gamma: float) -> np.ndarray:
    """Gain/loss operator G = diag(e^gamma, e^-gamma)."""
    return np.diag([math.exp(gamma), math.exp(-gamma)]).astype(complex)


def gain_loss_inverse(gamma: float) -> np.ndarray:
    """Inverse gain/loss operator G^-1 = diag(e^-gamma, e^gamma)."""
    return gain_loss(-gamma)


def symmetry_break(phi: float) -> np.ndarray:
    """Symmetry-breaking coin psi(phi) = ((cos phi, i sin phi), (i sin phi, cos phi))."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def d_coefficients(p: WalkParams) -> DCoefficients:
    """Compute all eight step coefficients for parameters p: the one-row case of _d_terms.

    The fields are Python floats and complex numbers, so that arithmetic on
    them is CPython's.
    """
    return DCoefficients(*(v.item() for v in _d_terms(*p.knobs)))


def _libm(fn, x):
    """math.fn elementwise, once per distinct value (numpy's cosh and sinh differ from libm's).

    A scalar or 0-d x gives the float fn(x).
    """
    if np.ndim(x) == 0:
        return fn(float(x))
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[inverse].reshape(np.shape(x))


def _coin_terms(theta2, gamma, k) -> tuple:
    """(cos theta2, sin theta2, cos 2k, cosh 2gamma, dx, dz): the terms of _d_terms that theta1 and phi do not enter."""
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return c2, s2, np.cos(2 * k), _libm(math.cosh, 2 * gamma), -_libm(math.sinh, 2 * gamma) * s2, c2 * np.sin(2 * k)


@functools.lru_cache(maxsize=64)
def _float_coin_terms(*bits: str) -> tuple:
    """_coin_terms of three Python floats keyed on their float.hex bits: as floats, 0.0 and -0.0 share a key."""
    return _coin_terms(*map(float.fromhex, bits))


def _d_terms(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, ...]:
    """(d0, dx, dy, dz, D0, DX, DY, DZ) elementwise over broadcastable arrays of the five knobs.

    np.sin and np.cos give libm's bits; cosh and sinh go through _libm. So
    each element is bitwise the formula evaluated with the math module and
    Python's own float and complex arithmetic.
    """
    # cached only if every term is finite, where a fresh call would not warn either
    cached = type(theta2) is type(gamma) is type(k) is float and math.isfinite(theta2 + 2 * gamma + 2 * k)
    c2, s2, c2k, ch, dx, dz = (_float_coin_terms(theta2.hex(), gamma.hex(), k.hex()) if cached
                               else _coin_terms(theta2, gamma, k))
    c1, s1 = np.cos(theta1), np.sin(theta1)
    d0 = c2k * c1 * c2 - ch * s1 * s2
    dy = -c2 * s1 * c2k - ch * c1 * s2
    cp, sp = np.cos(phi), np.sin(phi)
    isp = 1j * sp
    return d0, dx, dy, dz, cp * d0 + isp * dx, cp * dx + isp * d0, cp * dy + sp * dz, cp * dz - sp * dy


def d_arrays(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D0, DX, DY, DZ) elementwise over broadcastable arrays of the five knobs: the last four of _d_terms."""
    return _d_terms(theta1, theta2, phi, gamma, k)[4:]


def walk_operator_product(p: WalkParams) -> np.ndarray:
    """One-step coin operator M as the explicit seven-factor product."""
    r1 = rotation(p.theta1 / 2)
    s = phase_shift(p.k)
    return (
        symmetry_break(p.phi)
        @ r1
        @ gain_loss(p.gamma)
        @ s
        @ rotation(p.theta2)
        @ gain_loss_inverse(p.gamma)
        @ s
        @ r1
    )


def walk_operator_closed(p: WalkParams) -> np.ndarray:
    """One-step coin operator M from the D-coefficients only: the one-row case of walk_operator_closed_array."""
    return walk_operator_closed_array(*p.knobs)


def coin_entries(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M's entries (M00, M01, M10, M11) = (D0 + i DZ, DX + DY, DX - DY, D0 - i DZ) elementwise over
    broadcastable arrays of the five knobs, each of their broadcast shape: the one formula of M."""
    D0, DX, DY, DZ = d_arrays(theta1, theta2, phi, gamma, k)
    iz = 1j * DZ
    return D0 + iz, DX + DY, DX - DY, D0 - iz


def walk_operator_closed_array(theta1, theta2, phi, gamma, k) -> np.ndarray:
    """walk_operator_closed over broadcastable arrays of the five knobs: shape (..., 2, 2), coin_entries stacked."""
    entries = coin_entries(theta1, theta2, phi, gamma, k)
    m = np.empty(np.shape(entries[0]) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = entries
    return m


def u_step(p: WalkParams) -> np.ndarray:
    """Closed-form two-particle step operator, similar to I (x) M: the one-row case of u_step_array."""
    return u_step_array(*p.knobs)


def u_step_array(theta1, theta2, phi, gamma, k) -> np.ndarray:
    """u_step over broadcastable arrays of the five knobs: shape (..., 4, 4).

    Layout: D0 on the diagonal and the antisymmetric off-diagonal blocks
    +W / -W with W = ((DZ, i(DX+DY)), (i(DX-DY), -DZ)). The lower-left
    block's sign is forced by the requirement that the spectrum equals that
    of I (x) M for every parameter value.
    """
    D0, DX, DY, DZ = d_arrays(theta1, theta2, phi, gamma, k)
    u = np.zeros(np.shape(D0) + (4, 4), dtype=complex)
    u[..., range(4), range(4)] = np.expand_dims(D0, -1)
    u[..., 0, 2], u[..., 0, 3] = DZ, 1j * (DX + DY)
    u[..., 1, 2], u[..., 1, 3] = 1j * (DX - DY), -DZ
    u[..., 2:, :2] = -u[..., :2, 2:]
    return u


def params_at(knobs, index: int) -> WalkParams:
    """The WalkParams at flat index `index` of the broadcastable five knobs."""
    return WalkParams(*(float(v.flat[index]) for v in np.broadcast_arrays(*knobs)))


def cpython_mul(a, b) -> np.ndarray:
    """a * b elementwise as CPython forms a complex product, a real operand as imaginary part +0.0
    (numpy's product can differ in the last bit)."""
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def ep_gap(D0) -> np.ndarray:
    """s = eta_plus - D0 = sqrt(D0 D0 - 1) elementwise, numpy's principal root of CPython's D0 D0, minus 1.

    The two eigenvalues of u_step are D0 +/- s; they coalesce at the EPs, where s = 0 and D0 = +-1.
    """
    return np.sqrt(cpython_mul(D0, D0) - 1.0)


def guard_ep(s, knobs) -> None:
    """Raise TooCloseToEP at the first flat element of the gaps s (of the knobs' first rows) with |s| <= EP_GUARD.

    The eigenvectors of u_step carry the prefactor 1/s and the control pair
    divides by s^2, so their error grows like eps/|s|^2 (README).
    """
    abs_s = np.ravel(np.hypot(s.real, s.imag))  # bitwise Python's abs; np.abs differs
    close = np.flatnonzero(abs_s <= EP_GUARD)
    if len(close):
        raise TooCloseToEP(f"|eta - D0| = {abs_s[close[0]]:.3e} at {params_at(knobs, close[0])}")


def _cpython_div(a, b) -> np.ndarray:
    """a / b elementwise, formed as CPython forms a complex quotient: Smith's method, dividing
    by the denominator (Smith, CACM 5(8), 1962; numpy's multiplies by its reciprocal)."""
    by_real = np.abs(b.real) >= np.abs(b.imag)  # else by_imag, with the roles of (real, imag) swapped
    p, q, u, v = np.where(by_real, [b.real, b.imag, a.real, a.imag], [b.imag, b.real, a.imag, a.real])
    ratio = q / p
    denom = p + q * ratio
    z = np.empty(np.shape(ratio), dtype=complex)
    z.real, z.imag = (u + v * ratio) / denom, np.where(by_real, v - u * ratio, u * ratio - v) / denom
    return z


def control_operator(p: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """Control pair (C, C_inv) with C (I (x) M) C_inv = u_step: the one-row case of control_operator_array."""
    return control_operator_array(*p.knobs)


def control_operator_array(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, np.ndarray]:
    """Control pair (C, C_inv) over broadcastable arrays of the five knobs, each of shape (..., 4, 4).

    C = A B^-1, where A's columns are the right eigenstates of u_step in the
    eigenvalue order (eta-, eta-, eta+, eta+) and B's columns are |0>, |1>
    (x) the coin eigenvectors of M, in the gauge of the known endpoint control
    matrix. Multiplied out symbolically, with X, Y, Z = DX, DY, DZ,
    s^2 = D0^2 - 1 and sigma = sqrt(1 - D0^2):

        C     = ((i,         0, Z/sigma,       -i Z^2/(sigma (X-Y))),
                 (-Z/(X+Y),  0, i(X-Y)/sigma,  Z/sigma),
                 (0,         0, 0,             -sigma/(X-Y)),
                 (i Z/(X+Y), 1, 0,             0))
        C_inv = ((i(Y^2-X^2)/s^2, Z(X+Y)/s^2,   0,           0),
                 (Z(Y-X)/s^2,     -i Z^2/s^2,   0,           1),
                 (Z/sigma,        i(X+Y)/sigma, -i Z/sigma,  0),
                 (0,              0,            (Y-X)/sigma, 0))

    Each entry is bitwise this form evaluated point by point with Python
    complex X+Y, X-Y and s^2 and a numpy complex sigma: products, and
    quotients by s^2 and X+Y, are CPython's complex arithmetic, and quotients
    by sigma and X-Y are numpy's. The first row that fails a guard raises:
    guard_ep's TooCloseToEP, else SingularMatrix when
    |det B| = |X^2 - Y^2| / |s|^2 is at most 1e-12 max|B|^4, where
    max|B| = max(|X+Y|, |X-Y|, |s+iZ|, |s-iZ|) / (sqrt(2) |s|).
    """
    knobs = (theta1, theta2, phi, gamma, k)
    D0, X, Y, Z = d_arrays(*knobs)
    shape = np.shape(D0)
    D0, X, Y, Z = (np.ravel(v) for v in (D0, X, Y, Z))
    s = ep_gap(D0)
    plus, minus, i, zero, one = X + Y, X - Y, np.full(len(D0), 1j), np.zeros(len(D0)), np.ones(len(D0))
    sq, det, iz, jz, i_minus, i_plus, j_plus, z_plus, mz_minus = cpython_mul(
        np.array([D0, plus, i, -i, i, i, -i, Z, -Z]), np.array([D0, minus, Z, Z, minus, plus, plus, plus, minus]))
    s2 = sq - 1.0
    with np.errstate(all="ignore"):  # rows that fail a guard may divide by 0 or overflow here
        z = np.array([s, s2, det, plus, minus, s + iz, s - iz])
        abs_s, abs_s2, abs_det, *sides = np.hypot(z.real, z.imag)  # bitwise Python's abs; np.abs differs
        det_b = abs_det / abs_s2
        threshold = 1e-12 * (np.max(sides, axis=0) / (math.sqrt(2) * abs_s)) ** 4
    singular = np.flatnonzero(det_b <= threshold)
    guard_ep(s[:singular[0] + 1] if len(singular) else s, knobs)  # an EP row at or before it fails first
    if len(singular):
        r = singular[0]
        raise SingularMatrix(f"|det| = {det_b[r]:.3e} below threshold {threshold[r]:.3e}")
    sigma = np.sqrt(1.0 - sq)
    jzz, j_plus_minus, sigma_minus = cpython_mul(np.array([jz, j_plus, sigma]), np.array([Z, minus, minus]))
    z_s, i_minus_s, i_plus_s, jz_s, minus_s, c03, c23 = (np.array([Z, i_minus, i_plus, jz, -minus, jzz, -sigma])
                                                         / np.array([sigma] * 5 + [sigma_minus, minus]))
    ci00, ci01, ci10, ci11, c10, c30 = _cpython_div(np.array([j_plus_minus, z_plus, mz_minus, jzz, -Z, iz]),
                                                    np.array([s2, s2, s2, s2, plus, plus]))
    C = [[i, zero, z_s, c03], [c10, zero, i_minus_s, z_s], [zero, zero, zero, c23], [c30, one, zero, zero]]
    C_inv = [[ci00, ci01, zero, zero], [ci10, ci11, zero, one],
             [z_s, i_plus_s, jz_s, zero], [zero, zero, minus_s, zero]]
    return tuple(np.array(m).transpose(2, 0, 1).copy().reshape(shape + (4, 4)) for m in (C, C_inv))
