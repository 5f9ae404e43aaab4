"""Eigenstructure of the two-particle step operator and its quasienergy surfaces.

The step operator u_step has two doubly degenerate eigenvalues
eta_pm = D0 +/- sqrt(D0^2 - 1) (principal root). Each eigenvalue carries a
closed-form pair of right eigenstates alpha and left eigenstates beta with
beta_i^dag alpha_j = delta_ij exactly. The quasienergy lambda is defined
through eta = e^{-i lambda}; its two sheets over the (phi, theta1) plane form
the Riemann surface whose branch point is the exceptional point (EP), located
where D0^2 = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoBracket, TooCloseToEP
from .walk import WalkParams, d_coefficients

EIGENVECTOR_GUARD = 1e-8


@dataclass(frozen=True)
class EigenSystem:
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


@dataclass(frozen=True)
class SurfaceSample:
    phi: float
    theta1: float
    lambda_plus: complex
    lambda_minus: complex


@dataclass(frozen=True)
class EpLocation:
    phi: float
    theta1: float
    residual: float


def _principal_lambda(eta: complex) -> complex:
    lam = 1j * np.log(eta)
    if lam.real <= -math.pi:
        lam += 2 * math.pi
    return complex(lam)


def quasienergy(p: WalkParams) -> tuple[complex, complex]:
    """Quasienergy pair (lambda_plus, lambda_minus), Re lambda in (-pi, pi].

    lambda = i Log(eta) with the principal logarithm, so Im(lambda) = ln|eta|:
    a positive imaginary part marks a gain mode, a negative one a loss mode.
    """
    D0 = d_coefficients(p).D0
    s = np.sqrt(complex(D0 * D0 - 1.0))
    return _principal_lambda(D0 + s), _principal_lambda(D0 - s)


def eigensystem(p: WalkParams) -> EigenSystem:
    """Closed-form eigensystem of u_step(p).

    Raises TooCloseToEP when |eta - D0| <= 1e-8: the eigenvector prefactor
    1/(eta - D0) diverges at the coalescence and the basis loses meaning.
    """
    d = d_coefficients(p)
    s = np.sqrt(complex(d.D0 * d.D0 - 1.0))
    if abs(s) <= EIGENVECTOR_GUARD:
        raise TooCloseToEP(f"|eta - D0| = {abs(s):.3e} at {p}")
    rt2 = math.sqrt(2)

    def a12(c: complex) -> np.ndarray:
        return np.array([1j * (d.DX + d.DY), -d.DZ, 0.0, c], dtype=complex) / (rt2 * c)

    def a34(c: complex) -> np.ndarray:
        return np.array([d.DZ, 1j * (d.DX - d.DY), c, 0.0], dtype=complex) / (rt2 * c)

    def b12(c: complex) -> np.ndarray:
        row = np.array([-1j * (d.DX - d.DY), d.DZ, 0.0, c], dtype=complex) / (rt2 * c)
        return row.conj()

    def b34(c: complex) -> np.ndarray:
        row = np.array([-d.DZ, -1j * (d.DX + d.DY), c, 0.0], dtype=complex) / (rt2 * c)
        return row.conj()

    return EigenSystem(
        eta_plus=complex(d.D0 + s),
        eta_minus=complex(d.D0 - s),
        alpha=(a12(s), a12(-s), a34(-s), a34(s)),
        beta=(b12(s), b12(-s), b34(-s), b34(s)),
    )


def _axis(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 2:
        raise ConfigError(f"grid needs at least 2 points per axis, got {count}")
    return np.linspace(lo, hi, count)


def riemann_surface(
    phi_range: tuple[float, float, int],
    theta1_range: tuple[float, float, int],
    theta2: float = math.pi / 16,
    gamma: float = 0.2,
    k: float = 0.0,
) -> list[SurfaceSample]:
    """Quasienergy sheets sampled on a (phi, theta1) grid.

    Output order is phi-major, theta1-ascending.
    """
    phis = _axis(*phi_range)
    th1s = _axis(*theta1_range)
    out = []
    for phi in phis:
        for th1 in th1s:
            lp, lm = quasienergy(WalkParams(theta1=float(th1), theta2=theta2, phi=float(phi), gamma=gamma, k=k))
            out.append(SurfaceSample(phi=float(phi), theta1=float(th1), lambda_plus=lp, lambda_minus=lm))
    return out


def surface_csv(samples: list[SurfaceSample]) -> str:
    lines = ["phi,theta1,re_lp,im_lp,re_lm,im_lm"]
    for s in samples:
        lines.append(
            f"{s.phi:.12g},{s.theta1:.12g},{s.lambda_plus.real:.12g},{s.lambda_plus.imag:.12g},"
            f"{s.lambda_minus.real:.12g},{s.lambda_minus.imag:.12g}"
        )
    return "\n".join(lines) + "\n"


def find_ep(
    theta1_box: tuple[float, float] = (-0.5, -0.1),
    theta2: float = math.pi / 16,
    gamma: float = 0.2,
    k: float = 0.0,
    scan_points: int = 257,
) -> EpLocation:
    """Locate the eigenvalue coalescence D0^2 = 1 inside the search box.

    D0 = cos(phi) d0 + i sin(phi) dx can reach +-1 only where sin(phi) dx = 0,
    and dx = -sinh(2 gamma) sin(theta2) is nonzero whenever there is gain or
    loss. So for every k the EP lies on phi = 0, where D0 = d0 is real, and the
    search is a 1-dim root of d0 -/+ 1. The box may contain two such roots
    (the edges of the broken-symmetry window); the scan takes the first sign
    change from the lower theta1 end and bisects it.
    """
    if scan_points < 2:
        raise ConfigError(f"EP scan needs at least 2 points, got {scan_points}")

    def coefficients(theta1: float):
        return d_coefficients(WalkParams(theta1=theta1, theta2=theta2, phi=0.0, gamma=gamma, k=k))

    lo, hi = theta1_box
    grid = np.linspace(lo, hi, scan_points)
    d0s = [coefficients(float(t)).d0 for t in grid]
    for target in (1.0, -1.0):
        hits = [i for i in range(scan_points - 1) if (d0s[i] - target) * (d0s[i + 1] - target) <= 0]
        if hits:
            break
    else:
        raise NoBracket(
            f"no sign change of d0 -/+ 1 for theta1 in [{lo}, {hi}] "
            f"(theta2={theta2}, gamma={gamma}, k={k})"
        )

    a, b = float(grid[hits[0]]), float(grid[hits[0] + 1])
    fa = coefficients(a).d0 - target
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = coefficients(m).d0 - target
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    theta1 = 0.5 * (a + b)
    D0 = coefficients(theta1).D0
    return EpLocation(phi=0.0, theta1=theta1, residual=abs(D0 * D0 - 1.0))


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
