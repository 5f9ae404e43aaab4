import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eploop import tomo
from eploop.errors import ConfigError, IllConditioned
from eploop.harness import counts_csv
from eploop.metrics import bell_state, density_matrix, fidelity_pure
from eploop.tomo import (
    BASIS_PAIRS,
    MAX_RESAMPLES,
    CountsTable,
    TomoConfig,
    basis_projectors,
    bootstrap_error,
    counts_from_csv,
    measurement_matrix,
    probabilities,
    reconstruct,
    _reconstruct_rows,
    reconstruct_from_frequencies,
    simulate_counts,
    tomography,
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
    # refused before any draw: the stack would hold about 2 KB per resample
    with pytest.raises(ConfigError, match=r"resamples must lie in \[2, 100000\], got 100001"):
        bootstrap_error(counts, cfg, resamples=MAX_RESAMPLES + 1)


def test_tomo_config_validation():
    with pytest.raises(ConfigError):
        TomoConfig(counts_per_basis=0)
    with pytest.raises(ConfigError):
        TomoConfig(seed=-1)
    assert CountsTable(tuple((a, b, 1) for a, b in BASIS_PAIRS)).counts().sum() == 16


def _reference_reconstruction(freqs, psd_projection):
    """One frequency vector at a time: the scalar arithmetic the stacked core replaced."""
    meas = measurement_matrix()
    sol = np.linalg.solve(meas, freqs.astype(complex))
    residual = np.abs(meas @ sol - freqs).max()
    bound = 1e-8 * max(1.0, np.abs(freqs).max())
    if not residual <= bound:
        raise IllConditioned(f"inversion residual {residual:.3e} exceeds {bound:.3e}")
    rho = sol.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-12:
        raise IllConditioned(f"reconstructed trace {trace:.3e} too small to normalize")
    rho = rho / trace
    if psd_projection:
        w, v = np.linalg.eigh(rho)
        rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
        rho = rho / np.trace(rho).real
    return rho


def _named(where, fn, *args):
    """fn(*args), a guard it trips naming `where` as tomography names its failing row."""
    try:
        return fn(*args)
    except IllConditioned as exc:
        raise IllConditioned(f"{where}: {exc}") from exc


def _reference_bootstrap(counts, cfg, resamples):
    """The per-resample loop, after the observed counts' own estimate: one stream, reconstruction
    and four fidelities at a time."""
    _named("observed counts", _reference_reconstruction, counts.counts() / cfg.counts_per_basis, cfg.psd_projection)
    fids = np.empty((resamples, 4))
    for r in range(resamples):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))))
        freqs = rng.poisson(counts.counts()) / cfg.counts_per_basis
        rho = _named(f"resample {r}", _reference_reconstruction, freqs, cfg.psd_projection)
        assert np.array_equal(reconstruct_from_frequencies(freqs, cfg.psd_projection), rho)
        fids[r] = [fidelity_pure(bell_state(j), rho) for j in (1, 2, 3, 4)]
    return tuple(float(s) for s in fids.std(axis=0, ddof=1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IllConditioned as exc:
        return f"IllConditioned: {exc}"


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**200), st.integers(2**128, 2**200)),  # past 4 entropy words too
    amplitudes=st.lists(st.floats(-1, 1), min_size=8, max_size=8).filter(lambda a: np.hypot.reduce(a) > 1e-3),
    counts_per_basis=st.one_of(st.integers(1, 4), st.integers(5, 10**6)),
    resamples=st.integers(2, 64),
    psd_projection=st.booleans(),
)
def test_stacked_bootstrap_is_bitwise_the_per_resample_loop(seed, amplitudes, counts_per_basis, resamples,
                                                             psd_projection):
    psi = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
    cfg = TomoConfig(counts_per_basis=counts_per_basis, seed=seed, psd_projection=psd_projection)
    counts = simulate_counts(density_matrix(psi / np.linalg.norm(psi)), cfg)
    # a guard that fires must fire with the same message, for the same first resample
    assert _outcome(bootstrap_error, counts, cfg, resamples) == _outcome(_reference_bootstrap, counts, cfg, resamples)


def test_stacked_guards_fire_for_the_first_failing_resample():
    zero = CountsTable(tuple((a, b, 0) for a, b in BASIS_PAIRS))
    for psd in (False, True):
        with pytest.raises(IllConditioned, match="reconstructed trace 0.000e"):
            bootstrap_error(zero, TomoConfig(seed=3, psd_projection=psd), resamples=5)
    # no finite table trips the residual guard, which is relative to the frequencies; a NaN row does
    huge = CountsTable(tuple((a, b, i * 10**9) for i, (a, b) in enumerate(BASIS_PAIRS)))
    assert bootstrap_error(huge, TomoConfig(counts_per_basis=1), resamples=3) == pytest.approx(
        bootstrap_error(huge, TomoConfig(counts_per_basis=10**9), resamples=3), rel=0, abs=1e-12)
    good = probabilities(density_matrix(bell_state(2)))
    nan = np.full(16, np.nan)
    for rows, message in (([good, np.zeros(16), nan], "reconstructed trace"),
                          ([good, nan, np.zeros(16)], "inversion residual nan exceeds 1.000e-08")):
        with pytest.raises(IllConditioned, match=message):
            _reconstruct_rows(np.array(rows), psd_projection=False)
        with pytest.raises(IllConditioned, match=message):
            for freqs in rows:
                _reference_reconstruction(freqs, psd_projection=False)


def _one_table(counts, cfg, resamples):
    """The one-table functions: the estimate, its fidelities and the bootstrap, each on its own."""
    rho = _named("observed counts", reconstruct, counts, cfg)
    fids = [fidelity_pure(bell_state(j), rho) for j in (1, 2, 3, 4)]
    return rho.tobytes(), fids, list(bootstrap_error(counts, cfg, resamples))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    cases=st.lists(st.tuples(st.integers(0, 2**64), st.lists(st.floats(-1, 1), min_size=8, max_size=8)),
                   min_size=1, max_size=8, unique_by=lambda case: case[0]),
    counts_per_basis=st.one_of(st.integers(1, 4), st.integers(5, 10**6)),
    resamples=st.integers(2, 24),
    psd_projection=st.booleans(),
)
def test_stacked_tables_are_bitwise_the_one_table_functions(cases, counts_per_basis, resamples, psd_projection):
    tables, cfgs = [], []
    for seed, amplitudes in cases:
        psi = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
        psi = psi / np.linalg.norm(psi) if np.hypot.reduce(amplitudes) > 1e-3 else bell_state(1)
        cfgs.append(TomoConfig(counts_per_basis=counts_per_basis, seed=seed, psd_projection=psd_projection))
        tables.append(simulate_counts(density_matrix(psi), cfgs[-1]))
    # the first table whose estimate, then whose resamples, trip a guard raises its own message
    expected = []
    for failed, (counts, cfg) in enumerate(zip(tables, cfgs)):
        outcome = _outcome(_one_table, counts, cfg, resamples)
        if isinstance(outcome, str):
            expected = outcome
            break
        expected.append(outcome)
    stacked = _outcome(tomography, tables, cfgs, resamples)
    if isinstance(expected, str):
        assert stacked == expected
        with pytest.raises(IllConditioned) as guard:
            tomography(tables, cfgs, resamples)
        assert guard.value.row == failed  # the failing table's index, for the caller to name it
        return
    densities, fidelities, sds = stacked
    assert [(rho.tobytes(), fids.tolist(), sd.tolist()) for rho, fids, sd in zip(densities, fidelities, sds)] == expected


def test_stacked_chunks_hold_whole_tables(monkeypatch):
    cfgs = [TomoConfig(counts_per_basis=500, seed=seed) for seed in (4, 5, 6)]
    tables = [simulate_counts(density_matrix(bell_state(j)), cfg) for j, cfg in zip((1, 3, 4), cfgs)]
    whole = tomography(tables, cfgs, resamples=9)
    for rows in (1, 10, 19, 20, 10**6):  # below one table, one table, just under two, two, all
        monkeypatch.setattr(tomo, "MAX_STACK_ROWS", rows)
        chunked = tomography(tables, cfgs, resamples=9)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chunked, whole)), rows


def test_stacked_tables_share_counts_per_basis_and_projection():
    table = CountsTable(tuple((a, b, 1) for a, b in BASIS_PAIRS))
    for other in (TomoConfig(counts_per_basis=2), TomoConfig(psd_projection=True)):
        with pytest.raises(ConfigError, match="share counts_per_basis and psd_projection"):
            tomography([table, table], [TomoConfig(), other], resamples=2)
    with pytest.raises(ConfigError, match="one configuration per table"):
        tomography([table, table], [TomoConfig()], resamples=2)
    assert [a.shape for a in tomography([], [], resamples=2)] == [(0, 4, 4), (0, 4), (0, 4)]
