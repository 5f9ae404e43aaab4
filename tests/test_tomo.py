import numpy as np
import pytest

from eploop.errors import ConfigError
from eploop.metrics import bell_state, density_matrix, fidelity_pure
from eploop.tomo import (
    BASIS_PAIRS,
    CountsTable,
    TomoConfig,
    basis_projectors,
    bootstrap_error,
    counts_csv,
    counts_from_csv,
    measurement_matrix,
    probabilities,
    reconstruct,
    reconstruct_from_frequencies,
    simulate_counts,
)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_basis_layout():
    assert len(BASIS_PAIRS) == 16
    assert BASIS_PAIRS[0] == ("H", "H")
    assert BASIS_PAIRS[1] == ("H", "V")
    projs = basis_projectors()
    assert all(np.allclose(P, P.conj().T) for P in projs)
    assert all(np.trace(P) == pytest.approx(1.0) for P in projs)


def test_measurement_matrix_well_conditioned():
    m = measurement_matrix()
    assert m.shape == (16, 16)
    assert np.linalg.cond(m) < 10.5


def test_exact_reconstruction_round_trip():
    rng = np.random.default_rng(30)
    for _ in range(50):
        rho = random_density(rng)
        rec = reconstruct_from_frequencies(probabilities(rho))
        assert np.max(np.abs(rec - rho)) < 1e-12


def test_probabilities_sum_rule():
    # H/V rows tile a complete basis, so those four probabilities sum to one
    rho = random_density(np.random.default_rng(31))
    probs = probabilities(rho)
    idx = [BASIS_PAIRS.index(p) for p in (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))]
    assert sum(probs[i] for i in idx) == pytest.approx(1.0)


def test_simulate_counts_deterministic_and_sized():
    rho = density_matrix(bell_state(1))
    cfg = TomoConfig(counts_per_basis=5000, seed=42)
    a = simulate_counts(rho, cfg)
    b = simulate_counts(rho, cfg)
    assert a.records == b.records
    c = simulate_counts(rho, TomoConfig(counts_per_basis=5000, seed=43))
    assert c.records != a.records
    totals = a.counts()
    assert totals.shape == (16,)
    assert abs(totals[:4].sum() - 5000) < 300  # Poisson fluctuation around N


def test_reconstruct_from_counts_close_to_truth():
    rho = density_matrix(bell_state(3))
    cfg = TomoConfig(counts_per_basis=10000, seed=5)
    rec = reconstruct(simulate_counts(rho, cfg), cfg)
    assert np.trace(rec) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rec, rec.conj().T)
    assert fidelity_pure(bell_state(3), rec) > 0.98


def test_psd_projection_yields_positive_matrix():
    rho = density_matrix(bell_state(2))
    cfg = TomoConfig(counts_per_basis=2000, seed=9, psd_projection=True)
    rec = reconstruct(simulate_counts(rho, cfg), cfg)
    w = np.linalg.eigvalsh(rec)
    assert w.min() > -1e-12
    assert np.trace(rec) == pytest.approx(1.0, abs=1e-12)


def test_counts_csv_round_trip():
    rho = density_matrix(bell_state(4))
    cfg = TomoConfig(counts_per_basis=1000, seed=1)
    counts = simulate_counts(rho, cfg)
    text = counts_csv(counts)
    assert text.splitlines()[0] == "basis_a,basis_b,count"
    back = counts_from_csv(text)
    assert back.records == counts.records
    header, *rows = text.splitlines()
    shuffled = counts_from_csv("\n".join([header] + rows[::-1]) + "\n")
    assert shuffled.records == counts.records
    assert np.array_equal(reconstruct(shuffled, cfg), reconstruct(counts, cfg))


def test_counts_from_csv_validation():
    with pytest.raises(ConfigError):
        counts_from_csv("basis_a,basis_b,count\nH,H,notanumber\n")
    with pytest.raises(ConfigError):
        counts_from_csv("basis_a,basis_b,count\nQ,H,12\n")
    with pytest.raises(ConfigError):
        counts_from_csv("basis_a,basis_b,count\nH,H,5\n")  # missing rows
    full = counts_csv(CountsTable(tuple((a, b, 1) for a, b in BASIS_PAIRS)))
    for bad in ("", "\n", full.replace("R,R,1", "H,H,1")):  # empty, empty, duplicate pair
        with pytest.raises(ConfigError):
            counts_from_csv(bad)


def test_bootstrap_error_deterministic():
    rho = density_matrix(bell_state(1))
    cfg = TomoConfig(counts_per_basis=3000, seed=11)
    counts = simulate_counts(rho, cfg)
    a = bootstrap_error(counts, cfg, resamples=40)
    b = bootstrap_error(counts, cfg, resamples=40)
    assert a == b
    assert len(a) == 4
    # near-zero fidelities fluctuate hardest: the square root steepens there
    assert all(0 <= s < 0.15 for s in a)
    assert a[0] < 0.02  # the dominant-fidelity spread stays tight
    with pytest.raises(ConfigError):
        bootstrap_error(counts, cfg, resamples=1)


def test_tomo_config_validation():
    with pytest.raises(ConfigError):
        TomoConfig(counts_per_basis=0)
    with pytest.raises(ConfigError):
        TomoConfig(seed=-1)
    assert CountsTable(tuple((a, b, 1) for a, b in BASIS_PAIRS)).counts().sum() == 16
