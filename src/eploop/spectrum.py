"""Eigenstructure of the two-particle step operator and its quasienergy surfaces.

The step operator u_step has two doubly degenerate eigenvalues
eta_pm = D0 +/- sqrt(D0^2 - 1) (principal root). Each eigenvalue carries a
closed-form pair of right eigenstates alpha and left eigenstates beta with
beta_i^dag alpha_j = delta_ij exactly. The quasienergy lambda is defined
through eta = e^{-i lambda}; its two sheets over the (phi, theta1) plane form
the Riemann surface whose branch point is the exceptional point (EP), located
where D0^2 = 1.

Both are computed over broadcastable arrays of the five knobs, a whole loop
or surface grid in one pass; eigensystem is only the one-row case of
eigensystem_array.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, NoBracket
from .walk import WalkParams, d_arrays, ep_gap, guard_ep

SCAN_POINTS = 257  # find_ep's scan of its box; a pair of roots it misses falls back on exceptional_points
_DEFAULT = WalkParams._field_defaults  # the knobs' defaults: WalkParams.theta2 is a field descriptor


class EigenSystem(NamedTuple):
    """Right/left eigenstates of u_step with their eigenvalues.

    Index convention: alpha[0] and alpha[3] carry eta_plus, alpha[1] and
    alpha[2] carry eta_minus (so that at the standard start point alpha[j]
    is the eigenstate nearest Bell state j+1). beta[j] is the left eigenket:
    u_step^dag beta_j = conj(eta_j) beta_j and vdot(beta_i, alpha_j) = delta_ij.
    """

    eta_plus: complex
    eta_minus: complex
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    beta: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def eta(self) -> tuple[complex, complex, complex, complex]:
        """Eigenvalue of each indexed eigenstate: (eta+, eta-, eta-, eta+)."""
        return (self.eta_plus, self.eta_minus, self.eta_minus, self.eta_plus)


class EpLocation(NamedTuple):
    phi: float
    theta1: float
    residual: float


def quasienergy_array(theta1, theta2, phi, gamma, k) -> np.ndarray:
    """Quasienergy pairs over broadcastable arrays of the five knobs: shape (2, ...), lambda_plus first.

    lambda = i Log(eta) with the principal logarithm and Re lambda in
    (-pi, pi], so Im(lambda) = ln|eta|: a positive imaginary part marks a gain
    mode, a negative one a loss mode.
    """
    D0 = d_arrays(theta1, theta2, phi, gamma, k)[0]
    s = ep_gap(D0)  # unguarded: surface grids cross the EPs' neighbourhoods
    lam = 1j * np.log(np.stack([D0 + s, D0 - s]))
    return np.where(lam.real <= -math.pi, lam + 2 * math.pi, lam)


def eigensystem(p: WalkParams) -> EigenSystem:
    """Closed-form eigensystem of u_step(p): the one-row case of eigensystem_array."""
    eta, alpha, beta = eigensystem_array(*p.knobs)
    return EigenSystem(eta_plus=complex(eta[0]), eta_minus=complex(eta[1]), alpha=tuple(alpha), beta=tuple(beta))


def eigensystem_array(theta1, theta2, phi, gamma, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigensystem of u_step over broadcastable arrays of the five knobs.

    Returns the (eta_plus, eta_minus) pairs (..., 2) and the states alpha and
    beta (..., 4, 4), row j in EigenSystem's index order. With s = eta_plus - D0
    and c = (s, -s, -s, s), row j times sqrt(2) c_j is (i(DX+DY), -DZ, 0, c_j)
    in alpha and (-i(DX-DY), DZ, 0, c_j) in conj(beta) for j < 2, and
    (DZ, i(DX-DY), c_j, 0) and (-DZ, -i(DX+DY), c_j, 0) for j >= 2.
    walk.guard_ep raises TooCloseToEP for the first element too close to an EP:
    the eigenvector prefactor 1/(eta - D0) diverges at the coalescence.
    """
    knobs = (theta1, theta2, phi, gamma, k)
    D0, DX, DY, DZ = d_arrays(*knobs)
    s = ep_gap(D0)
    guard_ep(s, knobs)
    c = np.stack([s, -s, -s, s], axis=-1)
    alpha, beta = m = np.zeros((2,) + c.shape + (4,), dtype=complex)  # beta conjugated until the end
    alpha[..., :2, 0], alpha[..., :2, 1] = (1j * (DX + DY))[..., None], -DZ[..., None]
    alpha[..., 2:, 0], alpha[..., 2:, 1] = DZ[..., None], (1j * (DX - DY))[..., None]
    beta[..., :2, 0], beta[..., :2, 1] = (-1j * (DX - DY))[..., None], DZ[..., None]
    beta[..., 2:, 0], beta[..., 2:, 1] = -DZ[..., None], (-1j * (DX + DY))[..., None]
    m[..., :2, 3], m[..., 2:, 2] = c[..., :2], c[..., 2:]
    m /= (math.sqrt(2) * c)[..., None]
    return np.stack([D0 + s, D0 - s], axis=-1), alpha, np.conjugate(beta, out=beta)


def _axis(lo: float, hi: float, count: float) -> np.ndarray:
    if not float(count).is_integer():
        raise ConfigError(f"grid POINTS must be a whole number, got {count}")
    count = int(count)
    if count < 2:
        raise ConfigError(f"grid needs at least 2 points per axis, got {count}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite span is rejected below
            axis = np.linspace(lo, hi, count)
    except ValueError as exc:  # more points than any array can index
        raise ConfigError(f"grid of {count} points per axis is too large") from exc
    if not np.isfinite(axis).all():
        raise ConfigError(f"grid axis from {lo} to {hi} in {count} points is not finite")
    return axis


def riemann_surface(
    phi_range: tuple[float, float, int] = (-0.3, 0.3, 61),
    theta1_range: tuple[float, float, int] = (-0.8, 0.0, 61),
    theta2: float = _DEFAULT["theta2"],
    gamma: float = _DEFAULT["gamma"],
    k: float = _DEFAULT["k"],
) -> np.ndarray:
    """Quasienergy sheets sampled on a (phi, theta1) grid: a (P, 6) float array.

    Columns are phi, theta1, Re/Im lambda_plus and Re/Im lambda_minus, those
    of harness.surface_csv; rows are phi-major, theta1-ascending. The default
    grid is fig1b's. Raises DomainError at the first grid point where a sheet
    is not finite.
    """
    phi, theta1 = np.meshgrid(_axis(*phi_range), _axis(*theta1_range), indexing="ij")
    with np.errstate(all="ignore"):  # knobs too large for the coefficients are rejected below
        lam = quasienergy_array(theta1, theta2, phi, gamma, k).reshape(2, -1)
    grid = np.column_stack([phi.ravel(), theta1.ravel(), lam[0].real, lam[0].imag, lam[1].real, lam[1].imag])
    bad = np.flatnonzero(~np.isfinite(grid).all(axis=1))
    if len(bad):
        phi_bad, theta1_bad = grid[bad[0], :2].tolist()
        raise DomainError(f"quasienergy is not finite at phi={phi_bad}, theta1={theta1_bad} "
                          f"(theta2={theta2}, gamma={gamma}, k={k})")
    return grid


def exceptional_points(
    theta1_box: tuple[float, float] = (-0.5, -0.1),
    theta2: float = _DEFAULT["theta2"],
    gamma: float = _DEFAULT["gamma"],
    k: float = _DEFAULT["k"],
) -> tuple[float, ...]:
    """The theta1 of every EP on phi = 0 in the box [lo, hi], in closed form and ascending.

    On phi = 0, D0 = d0 = A cos theta1 - B sin theta1 with A = cos 2k cos theta2
    and B = cosh 2gamma sin theta2, so d0 = R cos(theta1 + delta) with
    R = hypot(A, B) and delta = atan2(B, A), and d0 = +-1 at
    theta1 = -delta +- arccos(+-1/R) + 2 pi n. They exist only if R >= 1, and
    they are EPs only where dx = -sinh(2 gamma) sin(theta2) is nonzero (else
    d0 = +-1 makes M = +-I). arccos(1/R) is taken as arctan(sqrt(R^2 - 1)) with
    R^2 - 1 = (sinh 2gamma sin theta2)^2 - (sin 2k cos theta2)^2, which keeps
    its digits for the narrow pairs of a small gamma, where R rounds to 1.
    """
    lo, hi = theta1_box
    turn = 2 * math.pi
    if not 0 <= hi - lo <= 2**20 * turn:
        raise ConfigError(f"theta1 box needs LO <= HI within 2^20 turns, got [{lo}, {hi}]")
    with np.errstate(invalid="ignore"):  # an infinite angle gives NaN: no EPs
        sin2k, cos2k, s2, c2 = (float(f(x)) for f, x in ((np.sin, 2 * k), (np.cos, 2 * k),
                                                          (np.sin, theta2), (np.cos, theta2)))
    w, v = abs(math.sinh(2 * gamma) * s2), abs(sin2k * c2)
    if not (0 < w < math.inf and v <= w):
        return ()
    delta = math.atan2(math.cosh(2 * gamma) * s2, cos2k * c2)
    half = math.atan(math.sqrt((w - v) * (w + v)))
    roots = set()
    for base in (-delta - half, -delta + half, math.pi - delta - half, math.pi - delta + half):
        roots.update(base + n * turn for n in range(math.ceil((lo - base) / turn), math.floor((hi - base) / turn) + 1))
    return tuple(sorted(t for t in roots if lo <= t <= hi))


def find_ep(
    theta1_box: tuple[float, float] = (-0.5, -0.1),
    theta2: float = _DEFAULT["theta2"],
    gamma: float = _DEFAULT["gamma"],
    k: float = _DEFAULT["k"],
) -> EpLocation:
    """Locate the eigenvalue coalescence D0^2 = 1 inside the search box.

    D0 = cos(phi) d0 + i sin(phi) dx can reach +-1 only where sin(phi) dx = 0,
    and dx = -sinh(2 gamma) sin(theta2) is nonzero whenever there is gain or
    loss. So for every k the EP lies on phi = 0, where D0 = d0 is real, and the
    search is a 1-dim root of d0 -/+ 1. The box (lo < hi) may contain two such
    roots (the edges of the broken-symmetry window); one d_arrays call scans
    SCAN_POINTS points for the first sign change from lo, and its scalar calls
    bisect it for at most 200 steps. A pair of roots inside one scan cell
    changes no sign on the scan, so then the closed-form root nearest lo
    (exceptional_points) is bracketed from lo to the midpoint of the next
    root, or hi, and bisected.
    The bisection stops early once the midpoint equals an end: the ends are
    then adjacent doubles, and every further step would leave the midpoint
    where it is.
    """
    lo, hi = theta1_box
    if not lo < hi:
        raise ConfigError(f"theta1 box needs LO < HI, got [{lo}, {hi}]")

    def D0(theta1):  # D0 = d0 exactly at phi = 0, so .real is d0
        return d_arrays(theta1, theta2, 0.0, gamma, k)[0]

    grid = _axis(lo, hi, SCAN_POINTS)
    with np.errstate(invalid="ignore"):  # an infinite 2k makes d0 NaN, which brackets no root
        d0 = D0(grid).real
    for target in (1.0, -1.0):
        hits = np.flatnonzero((d0[:-1] - target) * (d0[1:] - target) <= 0)
        if len(hits):
            a, b = float(grid[hits[0]]), float(grid[hits[0] + 1])
            break
    else:  # a pair in one scan cell: the root nearest lo and the next lie within 2 turns of lo
        roots = exceptional_points((lo, min(hi, lo + 4 * math.pi)), theta2, gamma, k)
        a, b = lo, 0.5 * (roots[0] + roots[1]) if len(roots) > 1 else hi
        target = 1.0 if roots and D0(roots[0]).real > 0 else -1.0
        if not roots or (D0(a).real - target) * (D0(b).real - target) > 0:
            raise NoBracket(
                f"no sign change of d0 -/+ 1 for theta1 in [{lo}, {hi}] "
                f"(theta2={theta2}, gamma={gamma}, k={k})"
            )

    fa = D0(a).real - target
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = D0(m).real - target
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    theta1 = 0.5 * (a + b)
    d = D0(theta1).item()  # Python's complex, so the residual is CPython's arithmetic
    return EpLocation(phi=0.0, theta1=theta1, residual=abs(d * d - 1.0))


def point_in_polygon(point: tuple[float, float], vertices: list[tuple[float, float]]) -> bool:
    """Even-odd ray-casting test; boundary points count as inside-or-outside
    per the half-open edge rule (adequate for points far from edges)."""
    x, y = point
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside
