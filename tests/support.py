"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np

from frfstats.resampling import IndexStreams

# The frequency vector used throughout the posture-control experiments.
EXPERIMENT_FREQS = [0.05, 0.15, 0.3, 0.4, 0.55, 0.7, 0.9, 1.1, 1.35, 1.75, 2.2]


class FixedStreams:
    """Stand-in for IndexStreams that serves canned index vectors.

    `table` maps a stream key (tuple) to a list of canned draws, each an
    index vector or a 2-D block of index rows; each call to ``integers`` on
    that stream pops the next draw and checks it has the requested shape.
    Used to drive the bootstrap loops with hand-chosen resamples so every
    intermediate value can be checked against straight-line arithmetic.
    """

    def __init__(self, table):
        self._table = {key: list(draws) for key, draws in table.items()}

    def stream(self, *key):
        return _FixedStream(self._table[key])


class _FixedStream:
    def __init__(self, draws):
        self._draws = draws

    def integers(self, low, high, size=None):
        draw = np.asarray(self._draws.pop(0), dtype=np.int64)
        want = (size,) if np.ndim(size) == 0 else tuple(size)
        if size is not None and draw.shape != want:
            raise AssertionError(f"canned draw has shape {draw.shape}, wanted {size}")
        if np.any(draw < low) or np.any(draw >= high):
            raise AssertionError("canned draw out of range")
        return draw


class CountingStreams(IndexStreams):
    """IndexStreams that counts the streams it builds."""

    def __init__(self, seed):
        super().__init__(seed)
        self.built = 0

    def stream(self, *key):
        self.built += 1
        return super().stream(*key)


class MirroredStreams:
    """Stream family with the two groups' key tails swapped.

    The comparison assigns group 1 and group 2 the even/odd final key
    element, so flipping that bit hands each group the draws the other
    group would have received.  Feeding this to compare_unpaired with the
    groups swapped must reproduce the original run exactly, negated.
    """

    def __init__(self, inner):
        self._inner = inner

    def stream(self, *key):
        mirrored = key[:-1] + (key[-1] ^ 1,)
        return self._inner.stream(*mirrored)


def traced_peak(fn):
    """``(fn(), peak bytes that tracemalloc saw allocated during the call)``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
