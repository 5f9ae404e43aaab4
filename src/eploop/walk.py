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
knobs, and u_step and control_operator are only the one-row cases of
u_step_array and control_operator_array. d_coefficients and
walk_operator_closed keep bodies of their own, bitwise their array forms,
for the EP search's bisection and perfbench's tracer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix, TooCloseToEP

EP_PREFACTOR_GUARD = 1e-6


@dataclass(frozen=True)
class WalkParams:
    """The five scalar knobs of one walk step (angles in radians)."""

    theta1: float
    theta2: float = math.pi / 16
    phi: float = 0.0
    gamma: float = 0.2
    k: float = 0.0

    @property
    def knobs(self) -> tuple[float, float, float, float, float]:
        """(theta1, theta2, phi, gamma, k), the argument order of the array forms."""
        return (self.theta1, self.theta2, self.phi, self.gamma, self.k)


@dataclass(frozen=True)
class DCoefficients:
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
    """Compute all eight step coefficients for parameters p."""
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


def _libm(fn, x):
    """math.fn elementwise, once per distinct value (numpy's cosh and sinh differ from libm's).

    A scalar or 0-d x gives the float fn(x).
    """
    if np.ndim(x) == 0:
        return fn(float(x))
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[inverse].reshape(np.shape(x))


def d_arrays(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D0, DX, DY, DZ) of d_coefficients, elementwise over broadcastable arrays of the five knobs.

    Every operation repeats d_coefficients' own, so each element is bitwise
    the scalar value.
    """
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    c2k = np.cos(2 * k)
    ch = _libm(math.cosh, 2 * gamma)
    d0 = c2k * c1 * c2 - ch * s1 * s2
    dx = -_libm(math.sinh, 2 * gamma) * s2
    dy = -c2 * s1 * c2k - ch * c1 * s2
    dz = c2 * np.sin(2 * k)
    cp, sp = np.cos(phi), np.sin(phi)
    return cp * d0 + 1j * sp * dx, cp * dx + 1j * sp * d0, cp * dy + sp * dz, cp * dz - sp * dy


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
    """One-step coin operator M from the D-coefficients only."""
    d = d_coefficients(p)
    return np.array(
        [[d.D0 + 1j * d.DZ, d.DX + d.DY], [d.DX - d.DY, d.D0 - 1j * d.DZ]],
        dtype=complex,
    )


def walk_operator_closed_array(theta1, theta2, phi, gamma, k) -> np.ndarray:
    """walk_operator_closed over broadcastable arrays of the five knobs: shape (..., 2, 2)."""
    D0, DX, DY, DZ = d_arrays(theta1, theta2, phi, gamma, k)
    m = np.empty(np.shape(D0) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1] = D0 + 1j * DZ, DX + DY
    m[..., 1, 0], m[..., 1, 1] = DX - DY, D0 - 1j * DZ
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
    TooCloseToEP when |eta - D0| = |s| <= 1e-6, else SingularMatrix when
    |det B| = |X^2 - Y^2| / |s|^2 is at most 1e-12 max|B|^4, where
    max|B| = max(|X+Y|, |X-Y|, |s+iZ|, |s-iZ|) / (sqrt(2) |s|).
    """
    knobs = (theta1, theta2, phi, gamma, k)
    D0, X, Y, Z = d_arrays(*knobs)
    shape = np.shape(D0)
    D0, X, Y, Z = (np.ravel(v) for v in (D0, X, Y, Z))
    plus, minus, i, zero, one = X + Y, X - Y, np.full(len(D0), 1j), np.zeros(len(D0)), np.ones(len(D0))
    sq, det, iz, jz, i_minus, i_plus, j_plus, z_plus, mz_minus = cpython_mul(
        np.array([D0, plus, i, -i, i, i, -i, Z, -Z]), np.array([D0, minus, Z, Z, minus, plus, plus, plus, minus]))
    s2 = sq - 1.0
    s = np.sqrt(s2)
    with np.errstate(all="ignore"):  # rows that fail a guard may divide by 0 or overflow here
        z = np.array([s, s2, det, plus, minus, s + iz, s - iz])
        abs_s, abs_s2, abs_det, *sides = np.hypot(z.real, z.imag)  # bitwise Python's abs; np.abs differs
        det_b = abs_det / abs_s2
        threshold = 1e-12 * (np.max(sides, axis=0) / (math.sqrt(2) * abs_s)) ** 4
    close = abs_s <= EP_PREFACTOR_GUARD
    failing = np.flatnonzero(close | (det_b <= threshold))
    if len(failing):
        r = failing[0]
        if close[r]:
            raise TooCloseToEP(f"|eta - D0| = {abs_s[r]:.3e} at {params_at(knobs, r)}")
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
