"""Seeded bootstrap plumbing shared by the band and the comparison.

The bootstrap config, the keyed random streams (which draw reads which
key is under `STREAM_LAYOUT`), the redraw rule for degenerate
replications, and the empirical CDF of a statistic pool, whose exact
order statistics convert between band scaling constants and confidence
levels.  The band bootstrap's replicate loop, its record and the pool
that the bands and the density read live in `frfstats.bands`.  Every
bootstrap loop runs serially, one replication at a time (the comparison
draws its index blocks several per call, which changes no draw);
results depend only on the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import index

import numpy as np

from ._frozen import fix
from .errors import DegenerateSpread


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs shared by every bootstrap operation, each an integer, not a bool.

    Attributes
    ----------
    replications : int
        Outer bootstrap replication count B.
    nested_replications : int
        Replication count Bs of the nested loop and of the pointwise-std
        estimate in the two-group comparison.
    seed : int
        Root seed, non-negative; all substreams derive from it.
    bins : int
        Resolution of the CLI's exported ECDF table, which has bins + 1
        rows; no result and no reuse of the band bootstrap depend on it.
    """

    replications: int = 1000
    nested_replications: int = 50
    seed: int = 0
    bins: int = 1000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.nested_replications < 2:
            raise ValueError("nested_replications must be >= 2")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


#: Version of the stream key layout, the map from bootstrap draws to
#: stream keys, bumped whenever fixed-seed results of some operation
#: change; the README's "Stream layout" section records what each
#: version changed.  Band and density replication b draw from stream
#: b, through one loop in `frfstats.bands` that redraws a degenerate
#: resample for both.  Comparison group g draws everything from one
#: stream, GROUP_KEY_OFFSET + g: the sigma resamples, then one block
#: of outer and nested rows per replication (see `frfstats.compare`).
STREAM_LAYOUT = 8


class IndexStreams:
    """Deterministic family of random streams, each keyed by one integer.

    Which draw reads which key is under `STREAM_LAYOUT`.  Stream k is
    numpy's generator ``default_rng(SeedSequence(seed, spawn_key=(k,)))``,
    bit for bit, hashed by `frfstats._seeding` 256 keys at a time: each key
    always yields the same sequence for a given root seed, and streams with
    different keys are statistically independent.  A seed numpy refuses is
    refused at construction: a negative one with ValueError, a float with
    TypeError; `stream` refuses a key that is no integer with TypeError, and
    one outside [0, 2**32) with ValueError.
    """

    def __init__(self, seed: int):
        # Imported here: it loads numpy.random, which `import frfstats` does not.
        from ._seeding import KeyedSeeds

        self._seeds = KeyedSeeds(seed)

    def stream(self, k: int) -> np.random.Generator:
        if not 0 <= (k := index(k)) < 2**32:
            raise ValueError(f"stream key {k} is not in [0, 2**32)")
        return self._seeds.generator(k)


def _index_type(n: int) -> np.dtype:
    """The narrowest unsigned integer type of a record's indices into N rows."""
    return np.min_scalar_type(n - 1)


#: Redraws per replication before zero spread is given up on.
MAX_REDRAWS = 10


def _draw_with_spread(what: str, draw, *sources):
    """First of up to 1 + MAX_REDRAWS draws with spread everywhere.

    ``draw(*sources)`` makes one draw from the replication's own streams,
    or the comparison's block sources, and returns ``(result, spread)``.
    The first draw whose spread is positive at every time point is
    returned as that pair; a redraw is the next call on the same sources.
    When every draw has a zero somewhere, DegenerateSpread says that
    `what` kept zero spread.
    """
    for _ in range(1 + MAX_REDRAWS):
        result, spread = draw(*sources)
        if (spread > 0.0).all():
            return result, spread
    raise DegenerateSpread(f"{what} after {MAX_REDRAWS} redraws")


@dataclass(frozen=True, eq=False)
class StatEcdf:
    """Empirical CDF of a statistic pool, held as the sorted pool.

    `pool` is a sorted copy of the M statistics it is given; they must be
    finite and at least one.  The CDF at c is the fraction of the pool at
    or below c, and every lookup is an order statistic of `pool`.
    """

    pool: np.ndarray

    def __post_init__(self) -> None:
        pool = np.sort(np.asarray(self.pool, dtype=float), axis=None)
        if pool.size == 0:
            raise ValueError("cannot build an ECDF from an empty pool")
        if not np.all(np.isfinite(pool)):
            raise ValueError("statistic pool must be finite")
        fix(self, pool=pool)


def ecdf(stats) -> StatEcdf:
    """Empirical CDF of the statistics, in any order or shape."""
    return StatEcdf(stats)


def alpha_at(e: StatEcdf, c: float) -> float:
    """Confidence level at which the pool's band scale reaches `c`.

    Returns the fraction of the pool at or below `c`: 0 below the pool,
    1 at or above its maximum.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("c must be finite")
    return int(np.searchsorted(e.pool, c, side="right")) / e.pool.size


def c_at(e: StatEcdf, alpha: float) -> float:
    """Band scale that reaches confidence level `alpha` on this pool.

    Returns the smallest pooled statistic whose CDF exceeds `alpha`: with
    k the number of ranks r in 1..M with ``r / M <= alpha``, that is the
    order statistic ``pool[k]``.  At k = M no statistic exceeds alpha and
    the pool maximum is returned.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = e.pool.size
    k = bisect_right(range(1, m + 1), alpha, key=lambda r: r / m)
    return float(e.pool[min(k, m - 1)])
