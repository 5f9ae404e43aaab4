"""Seeded substreams: the seeds of many SeedSequence children in one array pass.

Every seeded stream of the package is the PCG64 generator of
SeedSequence(entropy=seed, spawn_key=key) (NumPy NEP 19). SeedSequence hashes
the run entropy, then the spawn key, into a pool of four 32-bit words, and
hashes the pool into the generator's seed words. The pool after the run
entropy is the same for every key, so it is computed once with Python ints;
only the spawn-key words and the output hash run over the rows, as uint64
arrays masked to 32 bits. The words are bitwise those of
SeedSequence(...).generate_state, and PCG64 seeds itself from them, so every
stream starts in exactly the state that SeedSequence gives it.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(value, xor, mult):
    """One SeedSequence hash step on 32-bit words held in ints or uint64 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix on an int: (hashed value, next constant)."""
    nxt = const * _MULT_A & _MASK32
    return _hash(value, const, nxt), nxt


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


def _entropy_pool(entropy: int) -> tuple[list[int], int]:
    """The pool after the run entropy, padded to the pool size as a spawn key requires, and the hash constant."""
    words = [entropy >> 32 * i & _MASK32 for i in range(max(1, -(-entropy.bit_length() // 32)))]
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


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
    pool, const = _entropy_pool(entropy)
    lanes = np.array(pool, dtype=np.uint64)[:, None].repeat(len(keys), axis=1)  # (4, rows)
    for column in keys.astype(np.uint64).T:  # each key word mixes into every lane
        xor, mult, const = _hash_columns(const, _MULT_A, _POOL_SIZE)
        lanes = _mix(lanes, _hash(column, xor, mult))
    # the output hash cycles through the pool, two 32-bit words per uint64
    xor, mult, _ = _hash_columns(_INIT_B, _MULT_B, 2 * n_words)
    data = _hash(lanes[np.arange(2 * n_words) % _POOL_SIZE], xor, mult)
    return np.ascontiguousarray((data[0::2] | data[1::2] << 32).T)


@functools.cache
def _words_type() -> type:
    """The seed sequence that hands PCG64 one row of spawn_words.

    numpy.random is imported here, on first use, as np.random is: importing it
    costs about 6 MB of resident memory that commands drawing no random
    numbers (evolve, reproduce fig2) would otherwise pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {len(self.words)} uint64 words, asked for {n_words} {np.dtype(dtype)}")
            return np.ascontiguousarray(self.words)  # PCG64 reads the buffer as it lies

    return Words


def substreams(entropy: int, keys):
    """np.random.Generator(PCG64(SeedSequence(entropy=entropy, spawn_key=k))) for every row k of `keys`, lazily."""
    words_type = _words_type()
    for words in spawn_words(entropy, keys):
        yield np.random.Generator(np.random.PCG64(words_type(words)))
