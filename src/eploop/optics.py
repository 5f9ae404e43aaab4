"""Compilation of walk operators into polarization-optics element sequences.

Each compiled sequence stores its elements in application order (first element
acts first, i.e. it is the rightmost Jones factor), the operator it realizes,
a unit-modulus global phase, and a positive post-selection scale: the PPBS
gain/loss stages are lossy filters, so the physical chain reproduces the
target only up to the amplitude discarded at the beam splitter.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConventionMismatch, DomainError
from .linalg import kron
from .metrics import bell_state
from .walk import (
    WalkParams,
    control_operator,
    gain_loss,
    gain_loss_inverse,
    phase_shift,
    rotation,
    symmetry_break,
    walk_operator_product,
)

SINGLE_PHOTON_KINDS = ("HWP", "QWP", "PPBS", "PHASE")
TWO_PHOTON_KINDS = ("CNOT", "SWAP")


def start_params() -> WalkParams:
    """The shared loop endpoint (phi, theta1) = (0, -0.6) with default knobs."""
    return WalkParams(theta1=-0.6)


class _ElementFields(NamedTuple):
    kind: str
    params: tuple[float, ...] = ()
    path: str = "both"


class OpticalElement(_ElementFields):
    """One bench element, checked when constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in SINGLE_PHOTON_KINDS + TWO_PHOTON_KINDS:
            raise DomainError(f"unknown element kind {self.kind!r}")
        if self.path not in ("upper", "lower", "both"):
            raise DomainError(f"path must be upper/lower/both, got {self.path!r}")
        if self.kind == "PPBS":
            t_h, t_v = self.params
            if not (0.0 <= t_h <= 1.0 and 0.0 <= t_v <= 1.0):
                raise DomainError(f"transmittances must lie in [0, 1], got {self.params}")
        return self


def hwp(theta: float, path: str = "both") -> OpticalElement:
    return OpticalElement("HWP", (theta,), path)


def qwp(theta: float, path: str = "both") -> OpticalElement:
    return OpticalElement("QWP", (theta,), path)


def ppbs(t_h: float, t_v: float, path: str = "both") -> OpticalElement:
    return OpticalElement("PPBS", (t_h, t_v), path)


def phase_plate(phase: float) -> OpticalElement:
    return OpticalElement("PHASE", (phase,))


def jones(e: OpticalElement) -> np.ndarray:
    """Native Jones matrix: 2x2 for waveplate-class elements, 4x4 for gates."""
    if e.kind == "HWP":
        (t,) = e.params
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s], [s, -c]], dtype=complex)
    if e.kind == "QWP":
        (t,) = e.params
        c, s = math.cos(t), math.sin(t)
        return (math.sqrt(2) / 2) * np.array(
            [[1 - 1j * c, -1j * s], [-1j * s, 1 + 1j * c]], dtype=complex
        )
    if e.kind == "PPBS":
        t_h, t_v = e.params
        return np.diag([math.sqrt(t_h), math.sqrt(t_v)]).astype(complex)
    if e.kind == "PHASE":
        (t,) = e.params
        return np.diag([1.0, np.exp(1j * t)])
    if e.kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


_I2 = np.eye(2, dtype=complex)


def jones_two_photon(e: OpticalElement) -> np.ndarray:
    """4x4 action of an element inside a two-photon sequence.

    Waveplates and PPBS act on the photon named by the path tag (or on both).
    A PHASE element is the conditional phase plate diag(1, e^{i phase}, 1, 1):
    its role is to fix the sign of the |01> amplitude after post-selection.
    """
    if e.kind in TWO_PHOTON_KINDS:
        return jones(e)
    if e.kind == "PHASE":
        (t,) = e.params
        return np.diag([1.0, np.exp(1j * t), 1.0, 1.0])
    j = jones(e)
    if e.path == "upper":
        return kron(j, _I2)
    if e.path == "lower":
        return kron(_I2, j)
    return kron(j, j)


class ElementSequence(NamedTuple):
    elements: tuple[OpticalElement, ...]
    target: np.ndarray
    global_phase: complex = 1.0 + 0.0j
    scale: float = 1.0
    label: str = ""

    def product(self) -> np.ndarray:
        dim = self.target.shape[0]
        lift = jones if dim == 2 else jones_two_photon
        acc = np.eye(dim, dtype=complex)
        for e in self.elements:
            acc = lift(e) @ acc
        return acc

    def realized(self) -> np.ndarray:
        return self.global_phase * self.scale * self.product()

    def residual(self) -> float:
        return float(np.abs(self.realized() - self.target).max())


def _checked(seq: ElementSequence, tol: float = 1e-9) -> ElementSequence:
    r = seq.residual()
    if r > tol:
        raise ConventionMismatch(f"{seq.label or 'sequence'} residual {r:.3e} exceeds {tol:g}")
    return seq


def compile_rotation(theta: float) -> ElementSequence:
    """R(theta) from two half-wave plates: HWP(theta) . HWP(0)."""
    return _checked(
        ElementSequence(
            elements=(hwp(0.0), hwp(theta)),
            target=rotation(theta),
            label=f"rotation({theta:g})",
        )
    )


def compile_phase_shift(k: float) -> ElementSequence:
    """S(k) = i . QWP(pi/2) . HWP(pi/2 - k) . QWP(pi/2)."""
    return _checked(
        ElementSequence(
            elements=(qwp(math.pi / 2), hwp(math.pi / 2 - k), qwp(math.pi / 2)),
            target=phase_shift(k),
            global_phase=1j,
            label=f"phase_shift({k:g})",
        )
    )


def compile_symmetry_break(phi: float) -> ElementSequence:
    """psi(phi) = i . QWP(0) . HWP(phi) . QWP(0)."""
    return _checked(
        ElementSequence(
            elements=(qwp(0.0), hwp(phi), qwp(0.0)),
            target=symmetry_break(phi),
            global_phase=1j,
            label=f"symmetry_break({phi:g})",
        )
    )


def compile_gain_loss(gamma: float) -> ElementSequence:
    """G(gamma) as a post-selected PPBS: e^gamma . PPBS(1, e^{-4 gamma})."""
    return _checked(
        ElementSequence(
            elements=(ppbs(*transmittance_from_gamma(gamma)),),
            target=gain_loss(gamma),
            scale=math.exp(gamma),
            label=f"gain_loss({gamma:g})",
        )
    )


def compile_gain_loss_inverse(gamma: float) -> ElementSequence:
    """G^-1(gamma) as the same PPBS conjugated by HWP(pi/2) polarization swaps."""
    return _checked(
        ElementSequence(
            elements=(hwp(math.pi / 2), ppbs(*transmittance_from_gamma(gamma)), hwp(math.pi / 2)),
            target=gain_loss_inverse(gamma),
            scale=math.exp(gamma),
            label=f"gain_loss_inverse({gamma:g})",
        )
    )


def compile_walk_step(p: WalkParams) -> ElementSequence:
    """The whole one-step coin chain as bench elements.

    Concatenates the compilations of R(theta1/2), S, G^-1, R(theta2), S, G,
    R(theta1/2) again, and psi(phi), in application order; the combined global
    phase is -i (three i-phased stages) and the combined scale e^{2 gamma}
    (two lossy PPBS stages).
    """
    stages = (
        compile_rotation(p.theta1 / 2),
        compile_phase_shift(p.k),
        compile_gain_loss_inverse(p.gamma),
        compile_rotation(p.theta2),
        compile_phase_shift(p.k),
        compile_gain_loss(p.gamma),
        compile_rotation(p.theta1 / 2),
        compile_symmetry_break(p.phi),
    )
    elements = tuple(e for stage in stages for e in stage.elements)
    phase = complex(np.prod([stage.global_phase for stage in stages]))
    scale = float(np.prod([stage.scale for stage in stages]))
    return _checked(
        ElementSequence(
            elements=elements,
            target=walk_operator_product(p),
            global_phase=phase,
            scale=scale,
            label="walk_step",
        )
    )


def compile_control_endpoint(p: WalkParams | None = None) -> ElementSequence:
    """The endpoint control operator C as SWAP, CNOT, a PPBS/QWP pair per
    photon realizing the diagonal filter, and a conditional phase plate.

    The loss entry t1 is read off the computed control operator (0.8071 at
    the standard endpoint); its reciprocal appears on the other photon, so
    the pair is trace-preserving up to the overall post-selection scale 1/t1.
    """
    if p is None:
        p = start_params()
    target, _ = control_operator(p)
    t1 = float(abs(target[2, 3]))
    if not 0.0 < t1 <= 1.0:
        raise ConventionMismatch(f"filter entry |C[2,3]| = {t1:.6f} is not a transmittance amplitude")
    elements = (
        OpticalElement("SWAP"),
        OpticalElement("CNOT"),
        ppbs(1.0, t1 * t1, path="upper"),
        qwp(math.pi, path="upper"),
        ppbs(t1 * t1, 1.0, path="lower"),
        phase_plate(math.pi),
    )
    return _checked(
        ElementSequence(
            elements=elements,
            target=target,
            global_phase=np.exp(1j * math.pi / 4),
            scale=1.0 / t1,
            label="control_endpoint",
        ),
        tol=1e-6,
    )


def gamma_from_transmittance(t1: float, t2: float) -> float:
    """Gain/loss strength from PPBS intensity transmittances (l1^2, l2^2)."""
    if t1 <= 0 or t2 <= 0:
        raise DomainError(f"transmittances must be positive, got ({t1}, {t2})")
    if t1 > 1 or t2 > 1:
        raise DomainError(f"transmittances must be <= 1, got ({t1}, {t2})")
    if t1 < t2:
        raise DomainError("gain-equivalent normalization needs t1 >= t2")
    return 0.25 * math.log(t1 / t2)


def transmittance_from_gamma(gamma: float) -> tuple[float, float]:
    """Intensity transmittances (l1^2, l2^2) with the gain rail normalized to 1."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0 for the (1, t) normalization, got {gamma}")
    return 1.0, math.exp(-4.0 * gamma)


def prepared_state(label) -> np.ndarray:
    """The product state C^-1 |zeta_label> fed into the bench at the start point.

    Not normalized: the control operator is not unitary, and the missing
    norm is exactly the post-selection amplitude of the preparation stage.
    """
    _, c_inv = control_operator(start_params())
    return c_inv @ bell_state(label)


def _fmt_param(x: float) -> str:
    s = f"{x:.12g}"
    return s if ("." in s or "e" in s or "inf" in s) else s + ".0"


def sequence_text(seq: ElementSequence) -> str:
    """Element-list text: one element per line, application order, with the
    physical mount angle (half the Jones angle, in degrees) as the trailing
    column on waveplate lines."""
    lines = ["# application order; waveplate columns: jones angle (rad), mount angle (deg)"]
    two_photon = seq.target.shape[0] == 4
    for e in seq.elements:
        if two_photon and e.kind in SINGLE_PHOTON_KINDS and e.kind != "PHASE":
            lines.append(f"# {e.path} photon")
        if e.kind in ("HWP", "QWP"):
            (t,) = e.params
            lines.append(f"{e.kind} {t:.6f} {math.degrees(t / 2):.6f}")
        elif e.kind == "PPBS":
            t_h, t_v = e.params
            lines.append(f"PPBS {_fmt_param(t_h)} {_fmt_param(t_v)}")
        elif e.kind == "PHASE":
            (t,) = e.params
            lines.append(f"PHASE {t:.6f}")
        else:
            lines.append(e.kind)
    lines.append(f"# global_phase = {seq.global_phase.real:.12g}{seq.global_phase.imag:+.12g}j")
    lines.append(f"# scale = {seq.scale:.12g}")
    lines.append(f"# residual = {seq.residual():.3e}")
    return "\n".join(lines) + "\n"
