import numpy as np
import pytest

from eploop.errors import SingularMatrix
from eploop.linalg import inverse4, kron, max_abs

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_shape_and_values():
    out = kron(np.eye(2), SIGMA_X)
    assert out.shape == (4, 4)
    assert np.allclose(out[:2, :2], SIGMA_X)
    assert np.allclose(out[2:, 2:], SIGMA_X)


def test_max_abs():
    assert max_abs(np.array([[1, -3j], [2, 0]])) == 3.0


def test_inverse4_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(inverse4(m), np.linalg.inv(m), atol=1e-10)


def test_inverse4_rejects_singular():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(SingularMatrix):
        inverse4(m)
