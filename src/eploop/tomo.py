"""Projective-measurement simulation and density-matrix reconstruction.

Sixteen two-photon bases (all tensor pairs of H, V, D, R) are informationally
complete: the 16x16 map from a density matrix to basis probabilities inverts
directly. Counts are Poisson draws around counts_per_basis * probability;
reconstruction is linear inversion followed by Hermitization and trace
normalization, with eigenvalue clipping as an optional projection step.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IllConditioned
from .linalg import kron
from .metrics import bell_fidelities

BASIS_LABELS = ("H", "V", "D", "R")

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}

BASIS_PAIRS = tuple((a, b) for a in BASIS_LABELS for b in BASIS_LABELS)

# numpy's Poisson sampler rejects a mean above about 9.2e18; the counts per
# basis and every count of a counts file stay below this bound
MAX_COUNTS_PER_BASIS = 10**12
# a stacked tomography pass holds about 2 KB of temporaries per row (a table's
# estimate, then each of its resamples); tables go through it whole, in chunks
# of at most MAX_STACK_ROWS rows and at least one table, so a table and its
# resamples fill at most one chunk
MAX_RESAMPLES = 10**5
MAX_STACK_ROWS = MAX_RESAMPLES + 1


class _TomoFields(NamedTuple):
    counts_per_basis: int = 10000
    seed: int = 0
    psd_projection: bool = False


class TomoConfig(_TomoFields):
    """A tomography run's settings, checked when constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1 <= self.counts_per_basis <= MAX_COUNTS_PER_BASIS:
            raise ConfigError(f"counts_per_basis must lie in [1, {MAX_COUNTS_PER_BASIS}], got {self.counts_per_basis}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


class CountsTable(NamedTuple):
    records: tuple[tuple[str, str, int], ...]

    def counts(self) -> np.ndarray:
        return np.array([c for _, _, c in self.records], dtype=float)


def basis_projectors() -> list[np.ndarray]:
    """The 16 rank-1 projectors, pair order (H,H), (H,V), ... (R,R)."""
    out = []
    for a, b in BASIS_PAIRS:
        v = kron(_KETS[a], _KETS[b])
        out.append(np.outer(v, v.conj()))
    return out


def measurement_matrix() -> np.ndarray:
    """Row b is vec(P_b)^*, so measurement_matrix @ vec(rho) = probabilities."""
    return np.array([p.conj().reshape(-1) for p in basis_projectors()])


@functools.cache
def _meas() -> np.ndarray:
    """measurement_matrix, built on first use and kept read-only."""
    meas = measurement_matrix()
    meas.flags.writeable = False
    return meas


def probabilities(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.real(_meas() @ rho.reshape(-1))


def simulate_counts(rho: np.ndarray, cfg: TomoConfig) -> CountsTable:
    """Poisson counts around counts_per_basis * Tr(P_b rho), one seeded stream."""
    probs = np.clip(probabilities(rho), 0.0, None)
    draws = np.random.default_rng(cfg.seed).poisson(cfg.counts_per_basis * probs)
    records = tuple(
        (a, b, int(c)) for (a, b), c in zip(BASIS_PAIRS, draws)
    )
    return CountsTable(records=records)


def _reconstruct_rows(freqs: np.ndarray, psd_projection: bool) -> np.ndarray:
    """Estimates of an (R, 16) stack of basis frequencies, as an (R, 4, 4) stack.

    Every step runs over the whole stack, and row r is bitwise what the row
    gives alone. The solve is one LAPACK call per row: a single (16, R)
    right-hand side would change the last bits. The inversion residual is
    bounded relative to the row's scale, 1e-8 max(1, max|freqs|), so a table
    and its rescaled copy pass or fail together; a non-finite residual fails.
    A row that trips a guard raises for the first such row, with that row's
    message and its index as the error's `row`.
    """
    meas = _meas()
    sol = np.linalg.solve(np.broadcast_to(meas, (len(freqs), 16, 16)), freqs.astype(complex)[..., None])[..., 0]
    residual = np.abs((meas @ sol[..., None])[..., 0] - freqs).max(axis=1)
    bound = 1e-8 * np.fmax(1.0, np.abs(freqs).max(axis=1))
    rho = sol.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().mT)
    trace = np.trace(rho, axis1=1, axis2=2).real
    bad = ~(residual <= bound) | (np.abs(trace) < 1e-12)
    if bad.any():
        r = int(bad.argmax())
        guard = IllConditioned(f"inversion residual {residual[r]:.3e} exceeds {bound[r]:.3e}"
                               if not residual[r] <= bound[r] else
                               f"reconstructed trace {trace[r]:.3e} too small to normalize")
        guard.row = r
        raise guard
    rho = rho / trace[:, None, None]
    if psd_projection:
        w, v = np.linalg.eigh(rho)
        rho = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().mT
        rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho


def reconstruct_from_frequencies(freqs: np.ndarray, psd_projection: bool = False) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (16,):
        raise ConfigError(f"need 16 basis frequencies, got shape {freqs.shape}")
    return _reconstruct_rows(freqs[None], psd_projection)[0]


def reconstruct(counts: CountsTable, cfg: TomoConfig) -> np.ndarray:
    """Linear-inversion estimate from a counts table.

    Always Hermitized and trace-normalized; with cfg.psd_projection the
    eigenvalues are additionally clipped at 0 (the projected estimate is a
    valid density matrix but biases the fidelity of near-pure states, so the
    projection defaults off for estimation).
    """
    return reconstruct_from_frequencies(
        counts.counts() / cfg.counts_per_basis, psd_projection=cfg.psd_projection
    )


def check_resamples(resamples: int) -> None:
    if not 2 <= resamples <= MAX_RESAMPLES:
        raise ConfigError(f"resamples must lie in [2, {MAX_RESAMPLES}], got {resamples}")


def tomography(tables, cfgs, resamples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimate, Bell fidelities and parametric-bootstrap spread of many counts tables.

    Table t's configuration is cfgs[t]; the tables may have different seeds
    but share counts_per_basis and psd_projection. Returns the (T, 4, 4)
    linear-inversion estimates, their (T, 4) root fidelities against the four
    Bell states, and the (T, 4) standard deviations of those fidelities over
    `resamples` resampled tables. Resampled tables draw counts from
    Poisson(observed count); table t's stream r is the substream
    (cfgs[t].seed, spawn_key=(r,)), all of a table seeded in one
    streams.substreams pass.

    Every table's estimate, then its resamples, table after table, go through
    the reconstruction and the fidelities as one stack of rows, in chunks of
    whole tables (MAX_STACK_ROWS). Each row is bitwise what it gives alone, so
    the results do not depend on which tables share a call, and a guard that
    fires is the one for the first failing row in that order, named in its
    message (observed counts or resample r) and by its table's index `row`.
    """
    from .streams import substreams  # loaded on first use: only the commands that draw read it

    check_resamples(resamples)
    if len(tables) != len(cfgs):
        raise ConfigError(f"need one configuration per table, got {len(cfgs)} for {len(tables)}")
    if len({(cfg.counts_per_basis, cfg.psd_projection) for cfg in cfgs}) > 1:
        raise ConfigError("stacked tables must share counts_per_basis and psd_projection")
    densities = np.empty((len(tables), 4, 4), dtype=complex)
    fidelities = np.empty((len(tables), 4))
    sds = np.empty((len(tables), 4))
    per_table = resamples + 1
    step = max(1, MAX_STACK_ROWS // per_table)
    for start in range(0, len(tables), step):
        chunk = slice(start, min(start + step, len(tables)))
        counts = np.empty((chunk.stop - start, per_table, 16))
        for rows, table, cfg in zip(counts, tables[chunk], cfgs[chunk]):
            rows[0] = table.counts()
            for row, g in zip(rows[1:], substreams(cfg.seed, np.arange(resamples)[:, None])):
                row[:] = g.poisson(rows[0])
        shared = cfgs[start]
        try:
            rho = _reconstruct_rows(counts.reshape(-1, 16) / shared.counts_per_basis, shared.psd_projection)
        except IllConditioned as exc:
            table, r = divmod(exc.row, per_table)
            guard = IllConditioned(f"{'observed counts' if r == 0 else f'resample {r - 1}'}: {exc}")
            guard.row = start + table
            raise guard from exc
        fids = bell_fidelities(rho).reshape(len(counts), per_table, 4)
        densities[chunk] = rho.reshape(len(counts), per_table, 4, 4)[:, 0]
        fidelities[chunk] = fids[:, 0]
        # each table's spread over its own contiguous (resamples, 4) block
        sds[chunk] = [table_fids[1:].std(axis=0, ddof=1) for table_fids in fids]
    return densities, fidelities, sds


def bootstrap_error(counts: CountsTable, cfg: TomoConfig, resamples: int) -> tuple[float, float, float, float]:
    """Parametric-bootstrap standard deviation of each Bell-state fidelity: tomography of one table."""
    return tuple(tomography([counts], [cfg], resamples)[2][0].tolist())


def counts_from_csv(text: str) -> CountsTable:
    """Counts table from CSV text; rows may come in any order, one per basis pair."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError("counts file is empty")
    if lines[0] != "basis_a,basis_b,count":
        raise ConfigError(f"unexpected counts header {lines[0]!r}")
    by_pair = {}
    for ln in lines[1:]:
        try:
            a, b, c = ln.split(",")
            n = int(c)
        except ValueError as exc:
            raise ConfigError(f"malformed counts row {ln!r}") from exc
        if a not in BASIS_LABELS or b not in BASIS_LABELS:
            raise ConfigError(f"unknown basis pair {a},{b}")
        if not 0 <= n <= MAX_COUNTS_PER_BASIS:
            raise ConfigError(f"count in row {ln!r} must lie in [0, {MAX_COUNTS_PER_BASIS}]")
        if (a, b) in by_pair:
            raise ConfigError(f"duplicate basis pair {a},{b}")
        by_pair[(a, b)] = n
    if len(by_pair) != len(BASIS_PAIRS):
        raise ConfigError(f"need 16 count rows, got {len(by_pair)}")
    return CountsTable(records=tuple((a, b, by_pair[(a, b)]) for a, b in BASIS_PAIRS))
