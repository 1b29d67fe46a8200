"""The generators of `IndexStreams`, seeded a block of keys at a time.

``IndexStreams(seed).stream(*key)`` is numpy's
``default_rng(SeedSequence(seed, spawn_key=key))``, bit for bit.  A
SeedSequence hashes the root seed again for every key, which with PCG64's
hash of the pool costs about 20 µs per stream.  `KeyedSeeds` runs the same
published hash (numpy's ``bit_generator.pyx``, after O'Neill's seed_seq):
it mixes the seed into the entropy pool once, then hashes the key and
state words of BLOCK consecutive one-word keys in one vectorised uint32
pass, and numpy's own `PCG64` seeds itself from the words.  This module
imports `numpy.random`, which ``import frfstats`` leaves unloaded.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants; its entropy pool holds POOL_SIZE words.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF

#: One-word keys hashed per pass, from a multiple of BLOCK.
BLOCK = 256


def _words(values) -> list[int]:
    """The uint32 words numpy splits non-negative integers into, in order."""
    words = []
    for n in map(int, values):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words += [n >> shift & MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]
    return words


def _hashmix(value: np.ndarray, h: int, mult: int = MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of each word along `value`'s last axis, in
    order, from running hash constant `h`; returns the constant after them."""
    consts = [h]
    for _ in range(value.shape[-1]):
        consts.append(consts[-1] * mult & MASK32)
    c = np.array(consts, dtype=np.uint32)
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> XSHIFT, consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ result >> XSHIFT


def _mix_words(pool: np.ndarray, h: int, words: np.ndarray) -> tuple[np.ndarray, int]:
    """Mix each column of the (rows, words) `words` into every word of the
    (rows, POOL_SIZE) `pool`, as SeedSequence mixes entropy past its pool."""
    for column in words.T:
        mixed, h = _hashmix(np.repeat(column[:, None], POOL_SIZE, axis=1), h)
        pool = _mix(pool, mixed)
    return pool, h


class KeyedSeeds:
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=key)`` per key.

    The seed's words, padded with zeros to the pool size as SeedSequence
    pads them when a spawn key is present, are mixed once.  The block of
    BLOCK one-word keys that served the last such key is kept.
    """

    def __init__(self, seed: int):
        words = _words([seed])
        entropy = np.array([words + [0] * (POOL_SIZE - len(words))], dtype=np.uint32)
        pool, h = _hashmix(entropy[:, :POOL_SIZE], INIT_A)
        for src in range(POOL_SIZE):
            dst = [i for i in range(POOL_SIZE) if i != src]
            mixed, h = _hashmix(pool[:, [src] * len(dst)], h)
            pool[:, dst] = _mix(pool[:, dst], mixed)
        self._mixed, self._h = _mix_words(pool, h, entropy[:, POOL_SIZE:])
        self._block = (0, np.empty((0, 4), np.uint64))

    def _state(self, keys: np.ndarray) -> np.ndarray:
        """The (rows, 4) uint64 seed words of the (rows, words) uint32 keys."""
        pool, _ = _mix_words(self._mixed, self._h, keys)
        # generate_state(4, np.uint64) cycles the pool for 8 uint32 words.
        halves, _ = _hashmix(np.tile(pool, 2), INIT_B, MULT_B)
        halves = halves.astype(np.uint64)
        return halves[:, 0::2] | halves[:, 1::2] << 32

    def generator(self, key: tuple) -> Generator:
        if len(key) == 1 and 0 <= key[0] <= MASK32:
            k = int(key[0])
            start, state = self._block
            if not 0 <= k - start < len(state):
                start = k - k % BLOCK
                state = self._state(np.arange(start, start + BLOCK, dtype=np.uint32)[:, None])
                self._block = (start, state)
            row = state[k - start]
        else:
            row = self._state(np.array([_words(key)], dtype=np.uint32))[0]
        return Generator(PCG64(_SeedWords(row)))


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is four precomputed uint64 words."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state
