"""Seeded bootstrap plumbing.

Index draws, per-replication random substreams, the redraw rule for
degenerate replications, the replicate loop that the band and the density
share, and the histogram-based empirical CDF used to convert between band
scaling constants and confidence levels.  Every bootstrap loop runs
serially, one replication at a time; results depend only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpread


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs shared by every bootstrap operation.

    Attributes
    ----------
    replications : int
        Outer bootstrap replication count B.
    nested_replications : int
        Replication count Bs of the nested loop and of the pointwise-std
        estimate in the two-group comparison.
    seed : int
        Root seed; all substreams derive from it.
    bins : int
        Histogram bin count for the empirical CDF.
    """

    replications: int = 1000
    nested_replications: int = 50
    seed: int = 0
    bins: int = 1000

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.nested_replications < 2:
            raise ValueError("nested_replications must be >= 2")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")


#: Version of the stream key layout, the map from bootstrap draws to
#: stream keys.  It changes whenever fixed-seed results of some operation
#: change with it.  Layout 3: the band and density draw replication b from
#: stream (b,), through one loop (`_replicates`) that redraws a degenerate
#: resample for both; the comparison draws group g's sigma resamples from
#: (SIGMA_KEY_OFFSET + g,) and its replication b, outer and nested rows in
#: one block, from (b, g) (see `frfstats.compare`).  Layout 3 differs from
#: layout 2 only where the density's first draw of a replication had zero
#: spread: the density used that draw, it now uses the redrawn one.
STREAM_LAYOUT = 3


class IndexStreams:
    """Deterministic family of random streams keyed by small integer tuples.

    ``stream(b)`` is the stream of band or density replication b, and
    ``stream(b, g)`` that of comparison replication b for group g; the
    full key table is under `STREAM_LAYOUT`.  Streams with different keys
    are statistically independent and each key always yields the same
    sequence for a given root seed, so results do not depend on the order
    in which replications run.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)

    def stream(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self._seed, spawn_key=tuple(int(k) for k in key)
        )
        return np.random.default_rng(seq)


def resample_indices(n: int, stream) -> np.ndarray:
    """Draw n indices uniformly over 0..n-1 with replacement."""
    if n < 1:
        raise ValueError("need n >= 1 to resample")
    return stream.integers(0, n, size=n)


#: Redraws per replication before zero spread is given up on.
MAX_REDRAWS = 10


def _draw_with_spread(what: str, draw, *gens):
    """First of up to 1 + MAX_REDRAWS draws with spread everywhere.

    ``draw(*gens)`` makes one draw from the replication's own streams and
    returns ``(result, spread)``.  The first draw whose spread is positive
    at every time point is returned as that pair; a redraw is the next
    call on the same streams.  When every draw has a zero somewhere,
    DegenerateSpread says that `what` kept zero spread.
    """
    for _ in range(1 + MAX_REDRAWS):
        result, spread = draw(*gens)
        if (spread > 0.0).all():
            return result, spread
    raise DegenerateSpread(f"{what} after {MAX_REDRAWS} redraws")


def _replicate(pirs: np.ndarray, gen):
    """One resample: ``((indices, mean, squared deviations), std)``.

    The mean is taken once; the deviations of the resampled rows from it
    are squared in place and give the N-1 std.
    """
    idx = resample_indices(pirs.shape[0], gen)
    sq = pirs[idx]
    mean = sq.mean(axis=0)
    sq -= mean
    sq *= sq
    return (idx, mean, sq), np.sqrt(sq.sum(axis=0) / (idx.size - 1))


def _replicates(pirs: np.ndarray, B: int, streams: IndexStreams):
    """The band and density bootstrap, one replication at a time.

    Replication b resamples the rows of `pirs` from stream (b,), redrawn
    under the `_draw_with_spread` rule, and yields ``(indices, mean, std,
    sq)``: the accepted resample indices, its mean and N-1 std over the
    rows, and the rows' squared deviations from that mean.
    """
    for b in range(B):
        (idx, mean, sq), std = _draw_with_spread(
            "a bootstrap replication kept zero spread",
            _replicate, pirs, streams.stream(b),
        )
        yield idx, mean, std, sq


@dataclass(frozen=True)
class StatEcdf:
    """Histogram CDF of a statistic pool.

    `bin_edges` has bins+1 entries; `cdf[j]` is the fraction of the pool
    at or below ``bin_edges[j + 1]``.
    """

    bin_edges: np.ndarray
    cdf: np.ndarray

    def __post_init__(self) -> None:
        for name in ("bin_edges", "cdf"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.bin_edges.size != self.cdf.size + 1:
            raise ValueError("need exactly one more edge than cdf entries")
        if np.any(np.diff(self.cdf) < 0):
            raise ValueError("cdf must be non-decreasing")
        if self.cdf[-1] != 1.0:
            raise ValueError("cdf must end at exactly 1.0")

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


def ecdf(stats, bins: int) -> StatEcdf:
    """Equal-width histogram CDF over the range of the statistics.

    A constant pool gets its range widened by one machine epsilon on each
    side so the histogram stays well defined.
    """
    values = np.asarray(stats, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("cannot build an ECDF from an empty pool")
    if not np.all(np.isfinite(values)):
        raise ValueError("statistic pool must be finite")
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        pad = np.spacing(max(abs(lo), 1.0))
        lo -= pad
        hi += pad
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    cdf = np.cumsum(counts) / values.size
    cdf[-1] = 1.0
    return StatEcdf(bin_edges=edges, cdf=cdf)


def alpha_at(e: StatEcdf, c: float) -> float:
    """Confidence level at which the pool's band scale reaches `c`.

    Returns the cumulative count of the histogram bin containing `c`,
    clamped to 0 below the pool range and 1 at or above its top.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("c must be finite")
    if c < e.bin_edges[0]:
        return 0.0
    if c >= e.bin_edges[-1]:
        return 1.0
    j = int(np.searchsorted(e.bin_edges, c, side="right")) - 1
    return float(e.cdf[j])


def c_at(e: StatEcdf, alpha: float) -> float:
    """Band scale that reaches confidence level `alpha` on this pool.

    Returns the lower edge of the first histogram bin whose cumulative
    count exceeds `alpha`; at alpha = 1 that bin does not exist and the
    top edge (the pool maximum) is returned.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    idx = int(np.searchsorted(e.cdf, alpha, side="right"))
    if idx >= e.cdf.size:
        return float(e.bin_edges[-1])
    return float(e.bin_edges[idx])
