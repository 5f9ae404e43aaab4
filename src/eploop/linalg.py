"""Small complex matrix kernel: 2x2/4x4 products, inversion, Hermitian spectra.

All functions are pure and return fresh arrays; inputs are never mutated.
"""
from __future__ import annotations

import numpy as np

from .errors import NegativeEigenvalue, NotHermitian, SingularMatrix

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in (|00>, |01>, |10>, |11>) basis order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for empty input)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def inverse4(m: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 complex matrix.

    Raises SingularMatrix when |det| falls below 1e-12 times the
    max-entry^4 scale of the matrix.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got {m.shape}")
    scale = max(max_abs(m), 1e-300) ** 4
    det = np.linalg.det(m)
    if abs(det) <= 1e-12 * scale:
        raise SingularMatrix(f"|det| = {abs(det):.3e} below threshold {1e-12 * scale:.3e}")
    return np.linalg.inv(m)


def _hermitize(m: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    anti = max_abs(m - m.conj().T)
    if anti > tol:
        raise NotHermitian(f"anti-Hermitian part {anti:.3e} exceeds {tol:.1e}")
    return 0.5 * (m + m.conj().T)


def hermitian_eig4(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 4x4 matrix.

    Returns (eigenvalues ascending, eigenvectors as columns). The input is
    symmetrized internally; anti-Hermitian parts above 1e-6 raise NotHermitian.
    """
    h = _hermitize(m)
    w, v = np.linalg.eigh(h)
    return w, v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in [-1e-6, 0) are clipped to zero; anything more negative
    raises NegativeEigenvalue.
    """
    w, v = hermitian_eig4(m)
    if w.min() < -1e-6:
        raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} below -1e-6")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
