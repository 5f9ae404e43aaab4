"""Seeded substreams: the seeds of many SeedSequence children in one array pass.

Every seeded stream of the package is the PCG64 generator of
SeedSequence(entropy=seed, spawn_key=key) (NumPy NEP 19). SeedSequence hashes
the run entropy, then the spawn key, into a pool of four 32-bit words, and
hashes the pool into the generator's seed words. The pool after the run
entropy is the same for every key: it is SeedSequence(seed).pool, read once
from numpy. Only the spawn-key words and the output hash run over the rows, as
uint64 arrays masked to 32 bits. The words are bitwise those of
SeedSequence(...).generate_state, and PCG64 seeds itself from them, so every
stream starts in exactly the state that SeedSequence gives it. Importing this
module imports numpy.random; only the code that draws imports it.
"""
from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(value, xor, mult):
    """One SeedSequence hash step on 32-bit words held in uint64 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _hash_columns(const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The (n, 1) XOR and multiplier columns of n hash steps from `const`, and the constant left after them."""
    consts = [const]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint64)[:, None]
    return column[:-1], column[1:], consts[-1]


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def spawn_words(entropy: int, keys, n_words: int = 4) -> np.ndarray:
    """SeedSequence(entropy=entropy, spawn_key=k).generate_state(n_words, np.uint64) for every row k of `keys`.

    `keys` is a (rows, k) array-like of integers in [0, 2**32), k >= 1; the
    result is a (rows, n_words) uint64 array. A negative entropy or a key
    entry outside that range raises ValueError rather than give another state.
    """
    entropy = operator.index(entropy)
    if entropy < 0:
        raise ValueError(f"entropy must be a non-negative integer, got {entropy}")
    if n_words < 1:
        raise ValueError(f"n_words must be >= 1, got {n_words}")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1 or keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be a (rows, k >= 1) array of integers, got shape {keys.shape} {keys.dtype}")
    if keys.size and not (keys.min() >= 0 and keys.max() <= _MASK32):
        raise ValueError("spawn-key entries must lie in [0, 2**32)")
    # the run entropy's L >= 1 words took 16 + 4 max(0, L - 4) hash steps, each multiplying the constant by MULT_A
    n_entropy_words = max(1, -(-entropy.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, n_entropy_words - _POOL_SIZE), 2**32) & _MASK32
    lanes = np.array(np.random.SeedSequence(entropy).pool, dtype=np.uint64)[:, None].repeat(len(keys), axis=1)
    for column in keys.astype(np.uint64).T:  # each key word mixes into every lane of the (4, rows) pool
        xor, mult, const = _hash_columns(const, _MULT_A, _POOL_SIZE)
        lanes = _mix(lanes, _hash(column, xor, mult))
    # the output hash cycles through the pool, two 32-bit words per uint64
    xor, mult, _ = _hash_columns(_INIT_B, _MULT_B, 2 * n_words)
    data = _hash(lanes[np.arange(2 * n_words) % _POOL_SIZE], xor, mult)
    return np.ascontiguousarray((data[0::2] | data[1::2] << 32).T)


class _Words(ISeedSequence):
    """The seed sequence that hands PCG64 one row of spawn_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words, asked for {n_words} {np.dtype(dtype)}")
        return np.ascontiguousarray(self.words)  # PCG64 reads the buffer as it lies


def substreams(entropy: int, keys):
    """np.random.Generator(PCG64(SeedSequence(entropy=entropy, spawn_key=k))) for every row k of `keys`, lazily."""
    for words in spawn_words(entropy, keys):
        yield np.random.Generator(np.random.PCG64(_Words(words)))
