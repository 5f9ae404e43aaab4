"""Bell states, density matrices, root fidelity, and output classification."""
from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DomainError

BELL_LABELS = ("zeta1", "zeta2", "zeta3", "zeta4")
CLASSIFY_TIE_TOL = 1e-9

# Bell state j as row j-1, in the (|00>,|01>,|10>,|11>) basis; read-only, as every caller shares it
BELL_ROWS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex) / math.sqrt(2)
BELL_ROWS.setflags(write=False)


def bell_index(label) -> int:
    """Normalize a Bell-state label ('zeta3', or 3 as any integer but a bool) to its 1-based index."""
    if isinstance(label, str):
        if label not in BELL_LABELS:
            raise DomainError(f"unknown Bell label {label!r}")
        return BELL_LABELS.index(label) + 1
    if isinstance(label, bool) or not isinstance(label, numbers.Integral) or label not in (1, 2, 3, 4):
        raise DomainError(f"Bell index must be an integer 1..4, got {label!r}")
    return int(label)


def bell_state(label) -> np.ndarray:
    """The four maximally entangled two-qubit states in the (|00>,|01>,|10>,|11>) basis."""
    return BELL_ROWS[bell_index(label) - 1].copy()


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


def bell_fidelities(rho: np.ndarray) -> np.ndarray:
    """Root fidelities of an (R, 4, 4) stack of density matrices against the four
    Bell states, as (R, 4); bitwise fidelity_pure(bell_state(j), rho[r])."""
    overlaps = np.vecdot(BELL_ROWS, (rho[:, None] @ BELL_ROWS[:, :, None])[..., 0]).real
    return np.sqrt(np.maximum(0.0, overlaps))


class Classification(NamedTuple):
    label: str
    fidelities: tuple[float, float, float, float]
    tie: bool


def nearest_bell(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest Bell state of each row of an (R, 4) stack of normalized pure states, as arrays: the fidelities
    |<zeta_j|psi>| (R, 4), bitwise fidelity_pure's, the 0-based index (R,) and the tie flag (R,). Fidelities
    within CLASSIFY_TIE_TOL of the top one tie, and a tie goes to the lowest index. Raises DomainError at the
    first row whose fidelities are not finite."""
    with np.errstate(invalid="ignore"):  # 0 * inf in a non-finite row, rejected below
        overlaps = np.vecdot(BELL_ROWS, np.asarray(states, dtype=complex)[:, None, :])
    fids = np.hypot(overlaps.real, overlaps.imag)  # bitwise Python's abs; np.abs differs
    top = fids.max(axis=1, keepdims=True)  # NaN or inf wherever a row's fidelities are not finite
    if not np.isfinite(top).all():
        raise DomainError(f"cannot classify row {np.flatnonzero(~np.isfinite(top))[0]}: its state is not finite")
    close = top - fids < CLASSIFY_TIE_TOL
    return fids, close.argmax(axis=1), close.sum(axis=1) > 1


def classify(state: np.ndarray) -> Classification:
    """Nearest Bell state of one normalized pure state: nearest_bell of one row."""
    fids, index, tie = nearest_bell(np.asarray(state, dtype=complex).reshape(1, 4))
    return Classification(label=BELL_LABELS[index[0]], fidelities=tuple(fids[0].tolist()), tie=bool(tie[0]))
