import math

import numpy as np
import pytest

from eploop.errors import ConventionMismatch, DomainError
from eploop.metrics import bell_state
from eploop.optics import (
    ElementSequence,
    OpticalElement,
    compile_control_endpoint,
    compile_gain_loss,
    compile_gain_loss_inverse,
    compile_phase_shift,
    compile_rotation,
    compile_symmetry_break,
    compile_walk_step,
    gamma_from_transmittance,
    hwp,
    jones,
    jones_two_photon,
    phase_plate,
    ppbs,
    prepared_state,
    qwp,
    sequence_text,
    start_params,
    transmittance_from_gamma,
)
from eploop.walk import WalkParams, control_operator, walk_operator_product

CONTROL_REFERENCE_4DIGIT = np.array(
    [
        [1j, 0, 0, 0],
        [0, 0, -1.2389j, 0],
        [0, 0, 0, 0.8071],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)


def test_waveplates_unitary():
    for e in (hwp(0.3), qwp(-0.7), hwp(0.0), qwp(math.pi / 2)):
        j = jones(e)
        assert np.allclose(j @ j.conj().T, np.eye(2), atol=1e-12)


def test_hwp_matrix():
    j = jones(hwp(0.4))
    c, s = math.cos(0.4), math.sin(0.4)
    assert np.allclose(j, [[c, s], [s, -c]])


def test_ppbs_amplitudes():
    j = jones(ppbs(1.0, 0.25))
    assert np.allclose(j, np.diag([1.0, 0.5]))


def test_element_validation():
    with pytest.raises(DomainError):
        OpticalElement("MIRROR", (0.1,))
    with pytest.raises(DomainError):
        ppbs(1.2, 0.5)
    with pytest.raises(DomainError):
        OpticalElement("HWP", (0.1,), path="middle")


def test_two_photon_lifting():
    e = hwp(0.3, path="upper")
    j4 = jones_two_photon(e)
    assert np.allclose(j4, np.kron(jones(hwp(0.3)), np.eye(2)))
    e = hwp(0.3, path="lower")
    assert np.allclose(jones_two_photon(e), np.kron(np.eye(2), jones(hwp(0.3))))
    cond = jones_two_photon(phase_plate(math.pi))
    assert np.allclose(cond, np.diag([1, -1, 1, 1]))


def test_single_operator_compilations_exact():
    p0 = start_params()
    assert compile_rotation(-0.6).residual() < 1e-12
    assert compile_phase_shift(0.3).residual() < 1e-12
    assert compile_symmetry_break(0.2).residual() < 1e-12
    assert compile_gain_loss(0.2).residual() < 1e-12
    assert compile_gain_loss_inverse(0.2).residual() < 1e-12
    assert compile_walk_step(p0).residual() < 1e-12


def test_walk_step_bookkeeping():
    p0 = start_params()
    seq = compile_walk_step(p0)
    assert np.allclose(seq.target, walk_operator_product(p0))
    # the chain carries a global -i and the gain stages scale by e^(2 gamma)
    assert seq.global_phase == pytest.approx(-1j)
    assert seq.scale == pytest.approx(math.exp(2 * p0.gamma))


def test_control_endpoint_matches_computed_and_reference():
    seq = compile_control_endpoint()
    c, _ = control_operator(start_params())
    assert np.max(np.abs(seq.realized() - c)) < 1e-12
    assert np.max(np.abs(seq.realized() - CONTROL_REFERENCE_4DIGIT)) < 1e-3
    assert seq.scale == pytest.approx(1.2389333364484452, abs=1e-12)
    assert 1 / seq.scale == pytest.approx(0.8071459299550555, abs=1e-12)


def test_control_endpoint_off_the_standard_coin_fails_the_residual_check():
    # the fixed element layout does not realize C at this coin, and the shared residual check says so
    with pytest.raises(ConventionMismatch, match=r"^control_endpoint residual 1\.555e\+00 exceeds 1e-06$"):
        compile_control_endpoint(WalkParams(theta1=-0.5, theta2=0.3, phi=0.01, gamma=0.25, k=0.01))


def test_gamma_transmittance_round_trip():
    g = gamma_from_transmittance(1.0, 0.45)
    assert g == pytest.approx(0.25 * math.log(1 / 0.45), abs=1e-15)
    assert g == pytest.approx(0.1996, abs=1e-4)
    t1, t2 = transmittance_from_gamma(g)
    assert t1 == 1.0
    assert t2 == pytest.approx(0.45, abs=1e-12)
    with pytest.raises(DomainError):
        gamma_from_transmittance(0.45, 1.0)
    with pytest.raises(DomainError):
        gamma_from_transmittance(1.5, 0.45)
    with pytest.raises(DomainError):
        transmittance_from_gamma(-0.1)


def test_prepared_state_maps_back_to_bell():
    c, _ = control_operator(start_params())
    for j in range(1, 5):
        prep = prepared_state(j)
        out = c @ prep
        out = out / np.linalg.norm(out)
        assert abs(np.vdot(bell_state(j), out)) == pytest.approx(1.0, abs=1e-12)


def test_sequence_text_format():
    text = sequence_text(compile_rotation(-0.6))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].startswith("HWP ")
    first = lines[0].split()
    # second column is the jones angle, third the physical mount angle in degrees
    assert float(first[1]) == pytest.approx(0.0)
    assert float(first[2]) == pytest.approx(0.0)
    second = lines[1].split()
    assert float(second[1]) == pytest.approx(-0.6)
    assert float(second[2]) == pytest.approx(math.degrees(-0.3))
    assert "# residual" in text


def test_sequence_text_two_photon_paths():
    text = sequence_text(compile_control_endpoint())
    assert "SWAP" in text and "CNOT" in text
    assert "# upper photon" in text
    assert "# lower photon" in text


def test_residual_reports_mismatch_without_raising():
    seq = ElementSequence(elements=(hwp(0.0),), target=np.eye(2, dtype=complex))
    assert seq.residual() == pytest.approx(2.0)  # HWP(0) = diag(1,-1)
