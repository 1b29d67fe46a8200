"""`IndexStreams`' generators, numpy's ``default_rng(SeedSequence(seed, spawn_key=(k,)))``
bit for bit, for one integer key k in [0, 2**32).  numpy's `SeedSequence` hashes the
seed once; this module hashes the keys, by numpy's published hash, BLOCK keys per
uint32 pass.  It loads `numpy.random`; ``import frfstats`` does not.
"""

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, XSHIFT = 0xCA01F9DD, 0x4973F715, 16

#: Keys hashed per pass, from a multiple of BLOCK.
BLOCK = 256


def _hashmix(value: np.ndarray, h: int, mult: int) -> np.ndarray:
    """SeedSequence's hashmix of the words along the last axis, in order, from `h`."""
    c = np.array([h * mult**i % 2**32 for i in range(value.shape[-1] + 1)], np.uint32)
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> XSHIFT


class KeyedSeeds:
    """Generators of ``SeedSequence(seed, spawn_key=(k,))``, keys a block at a time."""

    def __init__(self, seed: int):
        # SeedSequence(seed).pool is a keyed sequence's pool before its key, after 4
        # hashmixes per word of the seed, which is padded to the pool's 4 words.
        self._mixed = SeedSequence(seed).pool
        self._h = INIT_A * MULT_A ** (4 * max(4, (int(seed).bit_length() + 31) // 32)) % 2**32
        self._block = (0, ())

    def generator(self, k: int) -> Generator:
        start, state = self._block
        if not 0 <= k - start < len(state):
            start = k - k % BLOCK
            keys = np.arange(start, start + BLOCK, dtype=np.uint32).repeat(4).reshape(-1, 4)
            mixed = MIX_MULT_L * self._mixed - MIX_MULT_R * _hashmix(keys, self._h, MULT_A)
            # generate_state(4, np.uint64) cycles the pool for 8 uint32 words.
            halves = _hashmix(np.tile(mixed ^ mixed >> XSHIFT, 2), INIT_B, MULT_B)
            state = halves[:, 0::2].astype(np.uint64) | halves[:, 1::2].astype(np.uint64) << 32
            self._block = (start, state)
        return Generator(PCG64(_SeedWords(state[k - start])))


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is four precomputed uint64 words."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state
