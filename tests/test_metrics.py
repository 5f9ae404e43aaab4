import numpy as np
import pytest

from eploop.errors import DomainError
from eploop.metrics import (
    BELL_LABELS,
    bell_index,
    bell_state,
    classify,
    density_matrix,
    fidelity_pure,
)


def test_bell_states_orthonormal():
    vs = [bell_state(j) for j in range(1, 5)]
    g = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert np.allclose(g, np.eye(4), atol=1e-15)


def test_bell_state_values():
    s = 1 / np.sqrt(2)
    assert np.allclose(bell_state(1), [s, 0, 0, s])
    assert np.allclose(bell_state(2), [s, 0, 0, -s])
    assert np.allclose(bell_state(3), [0, s, s, 0])
    assert np.allclose(bell_state(4), [0, s, -s, 0])


def test_bell_index_accepts_labels_and_ints():
    assert bell_index("zeta3") == 3
    assert bell_index(2) == 2
    with pytest.raises(DomainError):
        bell_index("zeta5")
    with pytest.raises(DomainError):
        bell_index("phi_plus")
    with pytest.raises(DomainError):
        bell_index(0)


def test_density_matrix_properties():
    rho = density_matrix(bell_state(2))
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.allclose(rho @ rho, rho, atol=1e-15)


def test_fidelity_pure_vector_and_matrix():
    psi = bell_state(4)
    assert fidelity_pure(psi, psi) == pytest.approx(1.0)
    assert fidelity_pure(psi, bell_state(1)) == pytest.approx(0.0, abs=1e-15)
    rho = 0.75 * density_matrix(psi) + 0.25 * density_matrix(bell_state(1))
    assert fidelity_pure(psi, rho) == pytest.approx(np.sqrt(0.75), abs=1e-12)


def test_classify_clear_winner():
    out = classify(bell_state(3))
    assert out.label == "zeta3"
    assert not out.tie
    assert out.fidelities[2] == pytest.approx(1.0)
    assert len(out.fidelities) == 4


def test_classify_flags_ties():
    psi = (bell_state(1) + bell_state(2)) / np.sqrt(2)
    out = classify(psi)
    assert out.tie
    assert out.label in ("zeta1", "zeta2")


def test_labels_tuple():
    assert BELL_LABELS == ("zeta1", "zeta2", "zeta3", "zeta4")
