"""Small complex matrix kernel: 2x2/4x4 products and inversion.

All functions are pure and return fresh arrays; inputs are never mutated.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrix


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in (|00>, |01>, |10>, |11>) basis order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def inverse4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 complex matrix.

    Raises SingularMatrix when |det| falls below 1e-12 times the
    max-entry^4 scale of the matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got {m.shape}")
    scale = max(float(np.abs(m).max()), 1e-300) ** 4
    det = np.linalg.det(m)
    if abs(det) <= 1e-12 * scale:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below threshold {1e-12 * scale:.3e}")
    return np.linalg.inv(m)
