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
    """Right/left eigenstates of u_step with their eigenvalues and quasienergies.

    Index convention: alpha[0] and alpha[3] carry eta_plus, alpha[1] and
    alpha[2] carry eta_minus (so that at the standard start point alpha[j]
    is the eigenstate nearest Bell state j+1). beta[j] is the left eigenket:
    u_step^dag beta_j = conj(eta_j) beta_j and vdot(beta_i, alpha_j) = delta_ij.
    """

    eta_plus: complex
    eta_minus: complex
    lambda_plus: complex
    lambda_minus: complex
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

    eta_p = complex(d.D0 + s)
    eta_m = complex(d.D0 - s)
    return EigenSystem(
        eta_plus=eta_p,
        eta_minus=eta_m,
        lambda_plus=_principal_lambda(eta_p),
        lambda_minus=_principal_lambda(eta_m),
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


def _d0_at(theta1: float, theta2: float, gamma: float) -> float:
    return d_coefficients(WalkParams(theta1=theta1, theta2=theta2, phi=0.0, gamma=gamma, k=0.0)).d0


def _coalescence_residual(phi: float, theta1: float, theta2: float, gamma: float, k: float) -> float:
    D0 = d_coefficients(WalkParams(theta1=theta1, theta2=theta2, phi=phi, gamma=gamma, k=k)).D0
    return abs(D0 * D0 - 1.0)


def find_ep(
    theta1_box: tuple[float, float] = (-0.5, -0.1),
    theta2: float = math.pi / 16,
    gamma: float = 0.2,
    k: float = 0.0,
    scan_points: int = 257,
) -> EpLocation:
    """Locate the eigenvalue coalescence D0^2 = 1 inside the search box.

    Along phi = 0 with k = 0 the coefficient D0 = d0 is real, so the problem
    reduces to a 1-dim root of d0 -/+ 1. The box may contain two such roots
    (the edges of the broken-symmetry window); the scan takes the first sign
    change from the lower theta1 end and bisects it. For k != 0 the phi = 0
    solution seeds a 2-dim Newton iteration on (Re D0 - target, Im D0).
    """
    if scan_points < 2:
        raise ConfigError(f"EP scan needs at least 2 points, got {scan_points}")
    lo, hi = theta1_box
    grid = np.linspace(lo, hi, scan_points)

    bracket = None
    target = 1.0
    for sign_target in (1.0, -1.0):
        vals = [_d0_at(float(t), theta2, gamma) - sign_target for t in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                bracket = (float(grid[i]), float(grid[i]))
                break
            if vals[i] * vals[i + 1] < 0:
                bracket = (float(grid[i]), float(grid[i + 1]))
                break
        if bracket is not None:
            target = sign_target
            break
    if bracket is None:
        raise NoBracket(
            f"no sign change of d0 -/+ 1 for theta1 in [{lo}, {hi}] "
            f"(theta2={theta2}, gamma={gamma})"
        )

    a, b = bracket
    fa = _d0_at(a, theta2, gamma) - target
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = _d0_at(m, theta2, gamma) - target
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    phi_ep, th1_ep = 0.0, 0.5 * (a + b)

    if k != 0.0:
        x = np.array([phi_ep, th1_ep])
        h = 1e-7
        for _ in range(60):
            def g(v: np.ndarray) -> np.ndarray:
                D0 = d_coefficients(
                    WalkParams(theta1=float(v[1]), theta2=theta2, phi=float(v[0]), gamma=gamma, k=k)
                ).D0
                return np.array([D0.real - target, D0.imag])

            f0 = g(x)
            if np.abs(f0).max() < 1e-14:
                break
            J = np.column_stack([(g(x + h * e) - f0) / h for e in np.eye(2)])
            try:
                x = x - np.linalg.solve(J, f0)
            except np.linalg.LinAlgError as exc:
                raise NoBracket(f"Newton refinement stalled at {x}") from exc
        phi_ep, th1_ep = float(x[0]), float(x[1])

    residual = _coalescence_residual(phi_ep, th1_ep, theta2, gamma, k)
    return EpLocation(phi=phi_ep, theta1=th1_ep, residual=residual)


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
