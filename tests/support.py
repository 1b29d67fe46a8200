"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np

from frfstats import bands
from frfstats.resampling import IndexStreams

# The frequency vector used throughout the posture-control experiments.
EXPERIMENT_FREQS = [0.05, 0.15, 0.3, 0.4, 0.55, 0.7, 0.9, 1.1, 1.35, 1.75, 2.2]


def drop_pool():
    """Drop the held band pool, so the next band call draws afresh.

    The pool keys on PIR values, not on the set object: a copy of a set
    reads the pool of the original unless it is dropped first.
    """
    bands._LAST = None


class FixedStreams:
    """Stand-in for IndexStreams that serves canned index vectors.

    `table` maps a stream key, one integer, to a list of canned draws, each
    an index vector or a 2-D block of index rows; each call to ``integers``
    on that stream pops the next draw and checks it has the requested shape.
    A request for a batch of k blocks, size ``(k, rows, n)``, pops the next
    k canned blocks and stacks them, as one call of k blocks yields the
    same integers as k calls of one.
    Used to drive the bootstrap loops with hand-chosen resamples so every
    intermediate value can be checked against straight-line arithmetic.
    """

    def __init__(self, table):
        self._table = {key: list(draws) for key, draws in table.items()}

    def stream(self, k):
        return _FixedStream(self._table[k])


def band_streams(*replications):
    """FixedStreams serving the band bootstrap's replications in order.

    Each replication is its one draw, an index vector, or its first draw
    followed by its redraws, a sequence of index vectors.  The table keys
    them as the stream layout does: replication b reads stream b.
    """
    return FixedStreams({
        b: [draws] if np.ndim(draws) == 1 else list(draws)
        for b, draws in enumerate(replications)
    })


class _FixedStream:
    def __init__(self, draws):
        self._draws = draws

    def integers(self, low, high, size=None):
        want = (size,) if np.ndim(size) == 0 else tuple(size)
        if len(want) == 3:
            draw = np.stack([self._pop() for _ in range(want[0])])
        else:
            draw = self._pop()
        if size is not None and draw.shape != want:
            raise AssertionError(f"canned draw has shape {draw.shape}, wanted {size}")
        if np.any(draw < low) or np.any(draw >= high):
            raise AssertionError("canned draw out of range")
        return draw

    def _pop(self):
        return np.asarray(self._draws.pop(0), dtype=np.int64)


class CountingStreams(IndexStreams):
    """IndexStreams that counts the streams it builds."""

    def __init__(self, seed):
        super().__init__(seed)
        self.built = 0

    def stream(self, k):
        self.built += 1
        return super().stream(k)


class MirroredStreams:
    """Stream family that serves stream ``k ^ 1`` for key k.

    The comparison draws group 1 from key 2 and group 2 from key 3, so
    flipping the last bit hands each group the draws the other group
    would have received.  Feeding this to compare_unpaired with the
    groups swapped must reproduce the original run exactly, negated.
    """

    def __init__(self, inner):
        self._inner = inner

    def stream(self, k):
        return self._inner.stream(k ^ 1)


def traced_peak(fn):
    """``(fn(), peak bytes that tracemalloc saw allocated during the call)``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
