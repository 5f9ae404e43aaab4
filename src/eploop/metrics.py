"""Bell states, density matrices, root fidelity, and output classification."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

BELL_LABELS = ("zeta1", "zeta2", "zeta3", "zeta4")
CLASSIFY_TIE_TOL = 1e-9

_BELL_VECTORS = {
    1: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    2: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    3: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    4: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


def bell_index(label) -> int:
    """Normalize a Bell-state label ('zeta3' or 3) to its 1-based index."""
    if isinstance(label, str):
        if label not in BELL_LABELS:
            raise DomainError(f"unknown Bell label {label!r}")
        return BELL_LABELS.index(label) + 1
    idx = int(label)
    if idx not in (1, 2, 3, 4):
        raise DomainError(f"Bell index must be 1..4, got {label!r}")
    return idx


def bell_state(label) -> np.ndarray:
    """The four maximally entangled two-qubit states in the (|00>,|01>,|10>,|11>) basis."""
    return _BELL_VECTORS[bell_index(label)].copy()


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a normalized pure state."""
    v = np.asarray(state, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def fidelity_pure(psi: np.ndarray, other: np.ndarray) -> float:
    """Root fidelity of a pure state against a state vector or a density matrix.

    For a vector this is |<psi|other>|; for a matrix sqrt(<psi|rho|psi>),
    clamped at 0 so slightly indefinite reconstructions stay in range.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    other = np.asarray(other, dtype=complex)
    if other.ndim == 1:
        return float(abs(np.vdot(psi, other)))
    return float(math.sqrt(max(0.0, np.real(np.vdot(psi, other @ psi)))))


_BELL_ROWS = np.array([_BELL_VECTORS[j] for j in (1, 2, 3, 4)])


def bell_fidelities(rho: np.ndarray) -> np.ndarray:
    """Root fidelities of an (R, 4, 4) stack of density matrices against the four
    Bell states, as (R, 4); bitwise fidelity_pure(bell_state(j), rho[r])."""
    overlaps = np.vecdot(_BELL_ROWS, (rho[:, None] @ _BELL_ROWS[:, :, None])[..., 0]).real
    return np.sqrt(np.maximum(0.0, overlaps))


@dataclass(frozen=True)
class Classification:
    label: str
    fidelities: tuple[float, float, float, float]
    tie: bool


def classify_rows(states) -> list[Classification]:
    """Nearest Bell state of each row of an (R, 4) stack of normalized pure states.

    Fidelities are |<zeta_j|psi>|, bitwise fidelity_pure's. Ties (top two
    fidelities within 1e-9) resolve to the lowest label index and set the
    tie flag.
    """
    overlaps = np.vecdot(_BELL_ROWS, np.asarray(states, dtype=complex)[:, None, :])
    out = []
    for row in overlaps.tolist():
        fids = tuple([abs(z) for z in row])  # Python abs: numpy's array abs differs
        top = max(fids)
        candidates = [j for j, f in enumerate(fids) if top - f < CLASSIFY_TIE_TOL]
        out.append(Classification(label=BELL_LABELS[candidates[0]], fidelities=fids, tie=len(candidates) > 1))
    return out


def classify(state: np.ndarray) -> Classification:
    """Nearest Bell state of one normalized pure state: classify_rows of one row."""
    return classify_rows(np.asarray(state, dtype=complex).reshape(1, 4))[0]
