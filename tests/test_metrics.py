import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop.errors import DomainError
from eploop.metrics import (
    BELL_LABELS,
    bell_fidelities,
    bell_index,
    bell_state,
    CLASSIFY_TIE_TOL,
    classify,
    density_matrix,
    fidelity_pure,
    nearest_bell,
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
    assert bell_index(np.int64(4)) == 4 and type(bell_index(np.uint8(1))) is int
    with pytest.raises(DomainError):
        bell_index("zeta5")
    with pytest.raises(DomainError):
        bell_index("phi_plus")
    with pytest.raises(DomainError):
        bell_index(0)


@pytest.mark.parametrize("label", [3.5, 2.9, 3.0, np.float64(1.0), True, False, np.True_, None, 1 + 0j],
                         ids=["3.5", "2.9", "3.0", "float64", "True", "False", "numpy-True", "None", "complex"])
def test_bell_index_rejects_what_is_not_a_bell_label(label):
    for fn in (bell_index, bell_state):
        with pytest.raises(DomainError) as info:
            fn(label)
        assert "\n" not in str(info.value)


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


def _classify_by_fidelity_pure(state):
    """The four scalar fidelity_pure calls and the tie rule, one state at a time."""
    fids = tuple(fidelity_pure(bell_state(j), state) for j in (1, 2, 3, 4))
    candidates = [j for j, f in enumerate(fids) if max(fids) - f < CLASSIFY_TIE_TOL]
    return BELL_LABELS[candidates[0]], fids, len(candidates) > 1


_B = [bell_state(j) for j in (1, 2, 3, 4)]
# exact and near ties: equal superpositions, and a split within or just outside the tie tolerance
_TIES = [(_B[0] + _B[1]) / np.sqrt(2), (_B[2] - 1j * _B[3]) / np.sqrt(2), sum(_B) / 2,
         np.array([1, 0, 0, 0], dtype=complex), np.array([0, 0, 1j, 0], dtype=complex),
         np.cos(np.pi / 4 + 2e-10) * _B[1] + np.sin(np.pi / 4 + 2e-10) * _B[3],
         np.cos(np.pi / 4 + 1e-8) * _B[1] + np.sin(np.pi / 4 + 1e-8) * _B[3]]
_STATE = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.array(v[::2]) + 1j * np.array(v[1::2])
).filter(lambda psi: np.linalg.norm(psi) > 0.1).map(lambda psi: psi / np.linalg.norm(psi))


def _nearest_bell_rows(states):
    """nearest_bell of a stack as one (label, fidelities, tie) per row, Python values."""
    fids, index, tie = nearest_bell(states)
    return [(BELL_LABELS[j], tuple(f), t) for f, j, t in zip(fids.tolist(), index.tolist(), tie.tolist())]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(_STATE, st.sampled_from(_TIES)), min_size=1, max_size=12))
def test_nearest_bell_is_bitwise_the_fidelity_pure_form(states):
    rows = _nearest_bell_rows(np.array(states))
    assert len(rows) == len(states)
    for state, row in zip(states, rows):
        assert row == _classify_by_fidelity_pure(state)
        cls = classify(state)
        assert (cls.label, cls.fidelities, cls.tie) == row
        assert type(cls.tie) is bool and all(type(f) is float for f in cls.fidelities)


def test_nearest_bell_tie_rule():
    labels = [(label, tie) for label, _, tie in _nearest_bell_rows(np.array(_TIES))]
    assert labels == [("zeta1", True), ("zeta3", True), ("zeta1", True), ("zeta1", True), ("zeta3", True),
                      ("zeta2", True), ("zeta4", False)]


def _split(gap):
    """cos(a) zeta2 + sin(a) zeta4, whose two fidelities differ by about `gap`, as
    sin(a) - cos(a) = sqrt(2) sin(a - pi/4)."""
    a = np.pi / 4 + np.arcsin(gap / np.sqrt(2))
    return np.cos(a) * _B[1] + np.sin(a) * _B[3]


# exact ties, near-ties either side of the tie tolerance, and signed zeros in every place
_EDGES = _TIES + [_split(CLASSIFY_TIE_TOL * (1 + e)) for e in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)] + [
    np.array([complex(a, b), complex(c, 0.0), complex(-0.0, d), 1.0])
    for a, b, c, d in ((0.0, -0.0, -0.0, 0.0), (-0.0, -0.0, 0.0, -0.0), (1.0, -0.0, -0.0, -0.0))]


def test_nearest_bell_is_the_fidelity_pure_rule_on_ties_and_signed_zeros():
    states = np.array([psi / np.linalg.norm(psi) for psi in _EDGES])
    expected = [_classify_by_fidelity_pure(psi) for psi in states]
    assert _nearest_bell_rows(states) == expected
    assert [(c.label, c.fidelities, c.tie) for c in map(classify, states)] == expected
    near = nearest_bell(states)[2][len(_TIES):len(_TIES) + 5].tolist()
    assert near[0] and not near[-1]  # the near-ties fall on both sides of the tolerance


def test_nearest_bell_names_the_first_non_finite_row():
    states = np.array([_B[0], _B[1], [np.inf, 0, 0, 0], [np.nan, 0, 0, 0]])
    with pytest.raises(DomainError, match="row 2"):
        nearest_bell(states)
    with pytest.raises(DomainError, match="row 0"):
        classify(states[3])


# Hermitian 4x4 matrices of trace about 1, positive or slightly indefinite, like noisy reconstructions
_RHO = st.tuples(st.lists(_STATE, min_size=1, max_size=4), st.floats(-0.05, 0.05)).map(
    lambda v: sum(density_matrix(psi) for psi in v[0]) / len(v[0]) + v[1] * np.diag([1.0, -1.0, 1.0, -1.0]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_RHO, min_size=1, max_size=6))
def test_bell_fidelities_are_bitwise_fidelity_pure(rhos):
    got = bell_fidelities(np.array(rhos)).tolist()
    assert got == [[fidelity_pure(bell_state(j), rho) for j in (1, 2, 3, 4)] for rho in rhos]
