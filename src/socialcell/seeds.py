"""numpy's seeding recipes, computed for many entropies in one pass.

`np.random.SeedSequence(entropy)` hashes a list of non-negative ints into a
pool of four 32-bit words, and `generate_state` hashes the pool out into
words (O'Neill's seed_seq_fe).  `np.random.default_rng(entropy)` seeds
PCG64 from `generate_state(4, np.uint64)`, and its first `integers(C)` is
the low half of PCG64's first output mapped to [0, C) by Lemire's bounded
draw (ACM TOMACS 2019).  Each step is a fixed integer recipe, so here it
runs once in numpy uint32/uint64 arithmetic over a batch of entropies, and
every result equals numpy's own bit for bit; numpy itself is called only
for a draw that Lemire's method rejects.

An entropy is given position by position: each item of `entropy` is one
int shared by every entropy of the batch, or a 1-D array with one int per
entropy (any integer dtype, or an object array for ints of 2**64 and up).
The arrays share one length K, the batch size; with none, K = 1.  As
numpy splits an int into its little-endian 32-bit words (0 is one word),
entropies of one batch may differ in length; each length is hashed in its
own pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generate_states(entropy: Sequence, n_words: int, dtype=np.uint32) -> np.ndarray:
    """`np.random.SeedSequence(e).generate_state(n_words, dtype)` of each
    entropy e of the batch, as a (K, n_words) array."""
    dtype = np.dtype(dtype)
    if dtype == np.uint32:
        return _states(entropy, n_words)
    if dtype != np.uint64:
        raise ValueError("only support uint32 or uint64")
    words = _states(entropy, 2 * n_words).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << 32


def first_integers(entropy: Sequence, high: int) -> np.ndarray:
    """`np.random.default_rng(e).integers(high)` of each entropy e of the
    batch, as a (K,) int64 array."""
    if high == 1:                       # numpy draws nothing
        return np.zeros(_batch(entropy), dtype=np.int64)
    if not 1 < high <= 1 << 32:         # 64-bit draws, or numpy's error
        return np.array([np.random.default_rng(_entropy_at(entropy, k)).integers(high)
                         for k in range(_batch(entropy))], dtype=np.int64)
    w = _states(entropy, 8).astype(np.uint64).T
    # generate_state(4, uint64) as (high, low) 64-bit pairs: PCG64's initial
    # state is (w1 w0, w3 w2) and its increment 2 * (w5 w4, w7 w6) + 1; limbs
    # of 32 bits, low first
    seq = [w[6], w[7], w[4], w[5]]
    inc = [seq[0] << 1 & _MASK32 | 1] + [(seq[i] << 1 | seq[i - 1] >> 31) & _MASK32
                                         for i in (1, 2, 3)]
    # seeding: state = inc, += initial state, one step; then the draw's step
    state = _add(inc, [w[2], w[3], w[0], w[1]])
    for _ in range(2):
        state = _add(_mul(state, _PCG_MULT), inc)
    # XSL-RR output, of which a 32-bit draw takes the low half
    x = (state[0] ^ state[2]) | (state[1] ^ state[3]) << 32
    rot = state[3] >> 26
    draw32 = ((x >> rot) | (x << (64 - rot & 63))) & _MASK32
    if high == 1 << 32:
        return draw32.astype(np.int64)
    scaled = draw32 * np.uint64(high)
    out = (scaled >> 32).astype(np.int64)
    # Lemire's rejection: numpy draws again, so ask numpy
    rejected = np.flatnonzero(scaled & _MASK32 < ((1 << 32) - high) % high)
    for k in rejected.tolist():
        out[k] = np.random.default_rng(_entropy_at(entropy, k)).integers(high)
    return out


# --------------------------------------------------------------------------
# SeedSequence
# --------------------------------------------------------------------------

def _batch(entropy: Sequence) -> int:
    shape = np.broadcast_shapes(*(np.shape(item) for item in entropy))
    if len(shape) > 1:
        raise ValueError("entropy items must be ints or 1-D arrays")
    return shape[0] if shape else 1


def _entropy_at(entropy: Sequence, k: int) -> list[int]:
    return [int(item if np.ndim(item) == 0 else item[k]) for item in entropy]


def _split(values) -> tuple[list[np.ndarray], np.ndarray]:
    """The little-endian 32-bit words of each value, as numpy's SeedSequence
    splits an int (0 is one word), and the count of each value's words."""
    values = np.atleast_1d(values)      # a 0-d object array's ops return ints
    if values.dtype.kind not in "iuO":
        raise TypeError("SeedSequence expects integer entropy")
    if np.any(values < 0):
        raise ValueError("expected non-negative integer")
    words = [(values & _MASK32).astype(np.uint32)]
    count = np.ones(values.shape, dtype=np.int64)
    values = values >> 32
    while np.any(values > 0):
        count += values > 0
        words.append((values & _MASK32).astype(np.uint32))
        values = values >> 32
    return words, count


def _states(entropy: Sequence, n_words: int) -> np.ndarray:
    """generate_state(n_words) of each entropy, as (K, n_words) uint32."""
    K = _batch(entropy)
    split = [_split(item) for item in entropy]
    counts = np.stack([np.broadcast_to(count, K) for _, count in split], axis=1)
    out = np.empty((K, n_words), dtype=np.uint32)
    if not K:
        return out
    # entropies whose items split into the same word counts hash alike
    if (counts == counts[:1]).all():
        groups = [(counts[0], slice(None))]
    else:
        keys, inverse = np.unique(counts, axis=0, return_inverse=True)
        groups = [(key, np.flatnonzero(inverse.ravel() == g)) for g, key in enumerate(keys)]
    for key, rows in groups:
        words = [np.broadcast_to(item_words[i], K)[rows]
                 for (item_words, _), n in zip(split, key.tolist()) for i in range(n)]
        pool = _pool(words, K if isinstance(rows, slice) else len(rows))
        const = _INIT_B
        for i in range(n_words):
            value = pool[i % _POOL] ^ const
            const = const * _MULT_B & _MASK32
            value = value * const
            out[rows, i] = value ^ value >> 16
    return out


def _pool(words: list[np.ndarray], K: int) -> list[np.ndarray]:
    """SeedSequence's pool of four uint32 words, from the entropies' words
    (one (K,) uint32 array per word position)."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    zero = np.zeros(K, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


# --------------------------------------------------------------------------
# 128-bit arithmetic in four 32-bit limbs, low first, held in uint64 arrays
# --------------------------------------------------------------------------

def _carry(columns: list) -> list[np.ndarray]:
    out, carry = [], 0
    for column in columns:
        column = column + carry
        out.append(column & _MASK32)
        carry = column >> 32
    return out


def _add(a: list, b: list) -> list[np.ndarray]:
    """a + b mod 2**128."""
    return _carry([x + y for x, y in zip(a, b)])


def _mul(a: list, b: int) -> list[np.ndarray]:
    """a * b mod 2**128 for a constant b: each 32 x 32-bit product's halves
    go to their columns, whose sums stay far below 2**64."""
    columns: list = [0] * 4
    for j in range(4):
        b_j = b >> 32 * j & _MASK32
        for i in range(4 - j):
            p = a[i] * b_j
            columns[i + j] = columns[i + j] + (p & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (p >> 32)
    return _carry(columns)
