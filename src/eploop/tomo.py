"""Projective-measurement simulation and density-matrix reconstruction.

Sixteen two-photon bases (all tensor pairs of H, V, D, R) are informationally
complete: the 16x16 map from a density matrix to basis probabilities inverts
directly. Counts are Poisson draws around counts_per_basis * probability;
reconstruction is linear inversion followed by Hermitization and trace
normalization, with eigenvalue clipping as an optional projection step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IllConditioned
from .metrics import bell_state, fidelity_pure

BASIS_LABELS = ("H", "V", "D", "R")

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}

BASIS_PAIRS = tuple((a, b) for a in BASIS_LABELS for b in BASIS_LABELS)


@dataclass(frozen=True)
class TomoConfig:
    counts_per_basis: int = 10000
    seed: int = 0
    psd_projection: bool = False

    def __post_init__(self):
        if self.counts_per_basis < 1:
            raise ConfigError(f"counts_per_basis must be >= 1, got {self.counts_per_basis}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CountsTable:
    records: tuple[tuple[str, str, int], ...]

    def counts(self) -> np.ndarray:
        return np.array([c for _, _, c in self.records], dtype=float)


def basis_projectors() -> list[np.ndarray]:
    """The 16 rank-1 projectors, pair order (H,H), (H,V), ... (R,R)."""
    out = []
    for a, b in BASIS_PAIRS:
        v = np.kron(_KETS[a], _KETS[b])
        out.append(np.outer(v, v.conj()))
    return out


def measurement_matrix() -> np.ndarray:
    """Row b is vec(P_b)^*, so measurement_matrix @ vec(rho) = probabilities."""
    return np.array([p.conj().reshape(-1) for p in basis_projectors()])


_MEAS = measurement_matrix()


def probabilities(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.real(_MEAS @ rho.reshape(-1))


def simulate_counts(rho: np.ndarray, cfg: TomoConfig) -> CountsTable:
    """Poisson counts around counts_per_basis * Tr(P_b rho), one seeded stream."""
    probs = np.clip(probabilities(rho), 0.0, None)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    draws = rng.poisson(cfg.counts_per_basis * probs)
    records = tuple(
        (a, b, int(c)) for (a, b), c in zip(BASIS_PAIRS, draws)
    )
    return CountsTable(records=records)


def reconstruct_from_frequencies(freqs: np.ndarray, psd_projection: bool = False) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (16,):
        raise ConfigError(f"need 16 basis frequencies, got shape {freqs.shape}")
    sol = np.linalg.solve(_MEAS, freqs.astype(complex))
    residual = np.abs(_MEAS @ sol - freqs).max()
    if residual > 1e-8:
        raise IllConditioned(f"inversion residual {residual:.3e} exceeds 1e-8")
    rho = sol.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-12:
        raise IllConditioned(f"reconstructed trace {trace:.3e} too small to normalize")
    rho = rho / trace
    if psd_projection:
        w, v = np.linalg.eigh(rho)
        w = np.clip(w, 0.0, None)
        rho = (v * w) @ v.conj().T
        rho = rho / np.trace(rho).real
    return rho


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


def bootstrap_error(counts: CountsTable, cfg: TomoConfig, resamples: int) -> tuple[float, float, float, float]:
    """Parametric-bootstrap standard deviation of each Bell-state fidelity.

    Resampled tables draw counts from Poisson(observed count); each resample
    reconstructs and evaluates fidelity against the four Bell states. Stream
    r uses the substream (seed, spawn_key=(r,)).
    """
    if resamples < 2:
        raise ConfigError(f"need at least 2 resamples, got {resamples}")
    observed = counts.counts()
    fids = np.empty((resamples, 4))
    for r in range(resamples):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))))
        rho = reconstruct_from_frequencies(
            rng.poisson(observed) / cfg.counts_per_basis, psd_projection=cfg.psd_projection
        )
        fids[r] = [fidelity_pure(bell_state(j), rho) for j in (1, 2, 3, 4)]
    sds = fids.std(axis=0, ddof=1)
    return tuple(float(s) for s in sds)


def counts_csv(counts: CountsTable) -> str:
    lines = ["basis_a,basis_b,count"]
    for a, b, c in counts.records:
        lines.append(f"{a},{b},{c}")
    return "\n".join(lines) + "\n"


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
        if n < 0:
            raise ConfigError(f"negative count in row {ln!r}")
        if (a, b) in by_pair:
            raise ConfigError(f"duplicate basis pair {a},{b}")
        by_pair[(a, b)] = n
    if len(by_pair) != len(BASIS_PAIRS):
        raise ConfigError(f"need 16 count rows, got {len(by_pair)}")
    return CountsTable(records=tuple((a, b, by_pair[(a, b)]) for a, b in BASIS_PAIRS))
