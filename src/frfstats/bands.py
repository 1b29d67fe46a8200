"""Prediction bands for FRF sets.

A prediction band is a corridor ``mean(t) +/- scale * std(t)`` built so a
fresh draw from the population falls inside it with a chosen confidence.
The scale is calibrated with a pivotized bootstrap: each replication
resamples the set, and every original sample contributes its maximum
standardized deviation from the replicate mean, standardized by the
replicate std.  The pool of B*N such statistics is summarized by its
empirical CDF; converting a confidence level to a scale (or back) is then
an exact order-statistic lookup.

The reverse question, "which confidence level would a given test sample
just reach?", is answered by minimal_prediction_band: the scale is fixed
by the test sample's own deviation from the set mean (raised by a few ulp
where rounding would leave the test outside the band) and the confidence
level is read off the same statistic pool at that scale.

One band bootstrap of a set serves every band, minimal band and density
call under the reuse rule of `bootstrap_deviation_stats`: its pool
(`_Pool`) holds the set's PIR matrix, mean and std, the record of the
draws, the sorted statistic pool and each replication's sorted squared
member distances.  The density ranks a test's squared distance against
those distances without gathering the resamples again (`_ranked`); the
"max" metric replays them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._frozen import fix, hold
from .errors import BandContainment, DegenerateSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, _refuse_overflowing_stats, pir_from_frf, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
    _index_type,
    alpha_at,
    c_at,
    ecdf,
)

#: One-ulp raises of the minimal band's scale before giving up on
#: containing the test sample; rounding needs at most two in practice.
MAX_SCALE_STEPS = 16


@dataclass(frozen=True, eq=False)
class Band:
    """A symmetric band around a mean curve.

    `upper` and `lower` are derived as ``mean +/- scale * std``.
    """

    mean: np.ndarray
    std: np.ndarray
    scale: float
    alpha: float
    upper: np.ndarray = field(init=False)
    lower: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mean = hold(self, "mean")
        std = hold(self, "std")
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D vectors of equal length")
        if not np.all(std >= 0):
            raise ValueError("std must be non-negative")
        if not self.scale >= 0:
            raise ValueError("scale must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        fix(self, upper=mean + self.scale * std, lower=mean - self.scale * std)

    def contains(self, values) -> bool:
        """True when the curve stays inside the band at every time point.

        The curve must have the band's shape; it is never broadcast.
        """
        v = np.asarray(values, dtype=float)
        if v.shape != self.mean.shape:
            raise ValueError(f"curve shape {v.shape} is not the band's {self.mean.shape}")
        return bool(np.all((v >= self.lower) & (v <= self.upper)))


@dataclass(frozen=True, eq=False)
class ReplicateDraws:
    """The band bootstrap's B*N record, one row per replication.

    `indices` holds each replication's accepted resample, in the narrowest
    unsigned integer type that holds N-1, and `stats` the per-sample
    max-deviation statistics whose pool calibrates the band.  A replicate
    mean is recomputed from its resample:
    ``pir_matrix(frf_set, grid)[draws.indices[b]].mean(axis=0)``.
    """

    indices: np.ndarray
    stats: np.ndarray

    def __post_init__(self) -> None:
        fix(self, **vars(self))

    @property
    def pool(self) -> np.ndarray:
        """The B*N statistics, flattened in replication-major order."""
        return self.stats.ravel()


# Distance of a row from the replicate mean, as a function of its squared
# deviations over the time points: "squared" is the discrete sum of squared
# differences (no time-step factor, so rescale when comparing across sample
# rates) and "max" the maximum absolute difference.  In binary floating
# point sqrt(x * x) == |x| exactly while x * x neither underflows nor
# overflows, so "max" needs no second pass over the unsquared rows.
_METRICS = {
    "squared": lambda sq: sq.sum(axis=-1),
    "max": lambda sq: np.sqrt(sq.max(axis=-1)),
}


def _resample_rows(pirs: np.ndarray, idx: np.ndarray):
    """Mean of rows `idx` of `pirs` and their squared deviations from it."""
    sq = pirs[idx]
    # The two ufunc calls of ``sq.mean(axis=0)``, without its wrapper.
    mean = sq.sum(axis=0)
    mean /= len(idx)
    sq -= mean
    sq *= sq
    return mean, sq


def _replicates(pirs: np.ndarray, cfg: BootstrapConfig, streams: IndexStreams | None):
    """The band bootstrap's ``cfg.replications`` replications, one at a time.

    Replication b resamples the rows of `pirs` from stream b of `streams`
    (None for ``IndexStreams(cfg.seed)``) under the `_draw_with_spread`
    rule, and yields ``(indices, mean, std, sq)``: the accepted resample,
    its mean and N-1 std over the rows, and the rows' squared deviations
    from that mean.  Callers check the set first (`_checked_stats`).
    """
    streams = IndexStreams(cfg.seed) if streams is None else streams
    n = pirs.shape[0]

    def draw(gen):
        idx = gen.integers(0, n, size=n)
        mean, sq = _resample_rows(pirs, idx)
        return (idx, mean, sq), np.sqrt(sq.sum(axis=0) / (n - 1))

    for b in range(cfg.replications):
        (idx, mean, sq), std = _draw_with_spread(
            "a bootstrap replication kept zero spread", draw, streams.stream(b)
        )
        yield idx, mean, std, sq


@dataclass(frozen=True, eq=False)
class _Pool:
    """One band bootstrap of a set, with everything its readers reuse.

    `key` is what its draws read (`_key`), under the reuse rule of
    `bootstrap_deviation_stats`.  `pirs` is the set's PIR matrix and
    `mean` and `std` its pointwise statistics, as `pir_stats` computes
    them.  `draws` is the record, `stat_ecdf` its sorted statistic pool,
    and row b of `distances` replication b's squared member distances to
    its mean, sorted.
    """

    key: tuple
    pirs: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    draws: ReplicateDraws
    stat_ecdf: StatEcdf
    distances: np.ndarray

    def __post_init__(self) -> None:
        fix(self, **vars(self))


# The last band bootstrap's pool, ``set -> _Pool``, dropped with its set;
# each miss clears it first.  `_band_pool` returns the pool it built, so a
# concurrent call that replaces the entry costs a rebuild, not a result.
_LAST: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _key(grid, cfg, streams) -> tuple:
    """A pool's reuse key: every input of the draws but the set."""
    return grid, streams, cfg.replications, cfg.seed


def _pool(frf_set: FRFSet, grid, cfg, streams) -> _Pool | None:
    """The set's pool if its band bootstrap read exactly these inputs."""
    pool = _LAST.get(frf_set)
    return pool if pool is not None and pool.key == _key(grid, cfg, streams) else None


def bootstrap_deviation_stats(
    frf_set: FRFSet,
    grid: FrequencyGrid,
    cfg: BootstrapConfig,
    streams: IndexStreams | None = None,
) -> ReplicateDraws:
    """Pivotized max-deviation statistics, B replications x N samples.

    Replication b resamples the N PIRs with replacement (stream key b),
    takes the replicate mean and std, and scores every original sample by
    ``max_t |x_i(t) - replicate_mean(t)| / replicate_std(t)``.
    Replications whose std hits zero anywhere are redrawn from their own
    stream, at most `resampling.MAX_REDRAWS` times, and a set with zero
    spread at some time point is refused first (DegenerateSpread).  The
    record keeps the B x N indices and statistics, no replicate mean or std.

    The last bootstrap is kept while its set lives, keyed by what the draws
    read, ``(grid, streams, cfg.replications, cfg.seed)``.  A call on that
    set with an equal key returns its record, and the bands and
    `estimate_density` read its pool.  Grids and `IndexStreams` compare by
    identity (None stands for ``IndexStreams(cfg.seed)``, and a streams
    object must yield the same draws per key on every call).  Any other
    call drops the pool first, so one pool at most is held: at N=200,
    B=1000 its B x N statistics, sorted statistics and squared member
    distances take 1.6 MB each and its indices 0.2 MB.
    """
    return _band_pool(frf_set, grid, cfg, streams).draws


def _checked_stats(frf_set: FRFSet, grid):
    """The set's PIR matrix, mean and std, checked before any draw.

    Refuses fewer than three samples, PIRs too large for finite statistics
    and zero spread at some time point, which every replication would keep.
    """
    if frf_set.n < 3:
        raise ValueError("need at least three samples to bootstrap")
    pirs = pir_matrix(frf_set, grid)
    _refuse_overflowing_stats(pirs)
    mean, std = pirs.mean(axis=0), pirs.std(axis=0, ddof=1)
    if np.any(std == 0.0):
        raise DegenerateSpread("the sample set has zero spread at some time point")
    return pirs, mean, std


def _band_pool(frf_set: FRFSet, grid, cfg, streams) -> _Pool:
    """The pool for these inputs, checked (`_checked_stats`), drawn and kept on a miss."""
    pool = _pool(frf_set, grid, cfg, streams)
    if pool is not None:
        return pool
    _LAST.clear()
    pirs, mean, std = _checked_stats(frf_set, grid)

    B, n = cfg.replications, frf_set.n
    indices = np.empty((B, n), dtype=_index_type(n))
    stats = np.empty((B, n))
    distances = np.empty((B, n))
    for b, (idx, rep_mean, rep_std, sq) in enumerate(_replicates(pirs, cfg, streams)):
        indices[b] = idx
        stats[b] = (np.abs(pirs - rep_mean) / rep_std).max(axis=1)
        distances[b] = _METRICS["squared"](sq)
    distances.sort(axis=1)
    draws = ReplicateDraws(indices=indices, stats=stats)
    pool = _Pool(key=_key(grid, cfg, streams), pirs=pirs, mean=mean, std=std, draws=draws,
                 stat_ecdf=ecdf(draws.pool), distances=distances)
    _LAST[frf_set] = pool
    return pool


def _ranked(test: FRF, frf_set: FRFSet, grid, cfg, metric: str, streams):
    """Each band replication's sorted member distances, and the test's place.

    Returns ``(es, below)``: row b of `es` holds the `metric` distances of
    replication b's resampled rows to its mean, sorted, and ``below[b]``
    counts those at or below the test PIR's distance to that mean.  A
    squared-metric call on a pool reads them off the pool
    (`_squared_below`); any other call replays the pool's resamples, or on
    a miss checks the set as the bands do (`_checked_stats`) and draws
    them through `_replicates`, unrecorded.
    """
    x = pir_from_frf(test, grid).values
    pool = _pool(frf_set, grid, cfg, streams)
    pirs = _checked_stats(frf_set, grid)[0] if pool is None else pool.pirs
    if pool is not None and metric == "squared":
        return pool.distances, _squared_below(pool, x)
    if pool is None:
        replicates = ((mean, sq) for _, mean, _, sq in _replicates(pirs, cfg, streams))
    else:
        replicates = (_resample_rows(pirs, idx) for idx in pool.draws.indices)

    distance = _METRICS[metric]
    es = np.empty((cfg.replications, frf_set.n))
    et = np.empty(cfg.replications)
    # A huge test response's distance overflows to +inf: it ranks last.
    # Only the test distance can overflow here, because PIRs too large for
    # finite member statistics are refused up front.
    with np.errstate(over="ignore"):
        for b, (mean, sq) in enumerate(replicates):
            es[b] = distance(sq)
            et[b] = distance(np.square(x - mean))
    es.sort(axis=1)
    return es, np.count_nonzero(es <= et[:, None], axis=1)


# `_squared_below` counts, for each replication b, the member distances at
# or below the loop's test distance et = fl(sum_t (x_t - m^_t)^2), where m^
# is the rounded mean of the resampled rows y_1..y_n.  It forms no mean.
# For any centre mu, with d = x - mu, p_j = y_j - mu, m their exact mean,
# c the resample's counts over the set's rows P_i, g_i = (P_i - mu) . d,
# r_i = |P_i - mu|^2 and Q = sum_j |y_j - m|^2, in real arithmetic
#     |x - m|^2 = |d|^2 + (c . (r - 2 g) - Q) / n,
# because sum_j |p_j|^2 = c . r = Q + n |m - mu|^2 (parallel axes).  The
# sum of the recorded distances stands in for Q.
#
# Rounding bound (Higham, Accuracy and Stability of Numerical Algorithms,
# 2002, §3.1: a sum or dot product of k terms errs by at most
# g_k = k u / (1 - k u) times the sum of the terms' magnitudes, u = 2^-53).
# Let R = max_i |P_i - mu|, so |m - mu| <= R and Q <= n R^2, L = |d| + R,
# and A_t = max_i |P_it|.  The rounded mean is m^ = m + delta with
# |delta| <= g_n |A|.  The recorded distances sum to Q + n |delta|^2 within
# g_{n+T+2} of themselves, so the product form lies within
# g_{n+T+8} 2 L^2 + 2 |delta|^2 of |x - m|^2, and the loop's et within
# g_{T+2} (L + |delta|)^2 + 2 L |delta| + |delta|^2.  Both together lie
# within 3 g_{n+T+8} (L + |A|)^2 of each other.  The margin takes twice
# that and more, 8 (n + T + 8) u (L + |A|)^2, which also covers rounding
# in L and |A|, plus (n + T + 8)^2 subnormal spacings for underflow.  No
# recorded distance inside the margin means the count is the loop's; a
# replication with one inside, or a non-finite product distance, gets
# the loop's et from its recorded resample.
def _squared_below(pool: _Pool, x: np.ndarray) -> np.ndarray:
    """Per replication, the squared member distances at or below the test's."""
    pirs, es, idx = pool.pirs, pool.distances, pool.draws.indices
    n, t = pirs.shape
    pc = pirs - pool.mean
    a = np.abs(pirs).max(axis=0)
    # A huge test overflows here to a non-finite distance or margin.
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - pool.mean
        dd = d @ d
        r = np.square(pc).sum(axis=1)
        approx = dd + ((r - 2.0 * (pc @ d))[idx].sum(axis=1) - es.sum(axis=1)) / n
        root = np.sqrt(dd) + np.sqrt(r.max()) + np.sqrt(a @ a)
        margin = (4 * (n + t + 8) * np.finfo(float).eps * root**2
                  + (n + t + 8) ** 2 * np.finfo(float).smallest_subnormal)
        lo, hi = approx - margin, approx + margin
    below = np.count_nonzero(es < lo[:, None], axis=1)
    unsure = (np.count_nonzero(es <= hi[:, None], axis=1) > below) | ~np.isfinite(hi)
    for b in np.flatnonzero(unsure):
        mean, _ = _resample_rows(pirs, idx[b])
        with np.errstate(over="ignore"):
            et = _METRICS["squared"](np.square(x - mean))
        below[b] = np.count_nonzero(es[b] <= et)
    return below


def prediction_band(
    frf_set: FRFSet,
    grid: FrequencyGrid,
    alpha: float,
    cfg: BootstrapConfig,
    streams: IndexStreams | None = None,
) -> Band:
    """Band expected to contain a fresh draw with confidence `alpha`; it
    reads the pool under `bootstrap_deviation_stats`' reuse rule."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pool = _band_pool(frf_set, grid, cfg, streams)
    return Band(mean=pool.mean, std=pool.std, scale=c_at(pool.stat_ecdf, alpha), alpha=alpha)


def _containing_scale(mean: np.ndarray, std: np.ndarray, x: np.ndarray) -> float:
    """Smallest float at or above ``max|x - mean| / std`` whose band holds `x`."""
    # An overflowing deviation is left to the isfinite test below.
    with np.errstate(over="ignore"):
        scale = float(np.max(np.abs(x - mean) / std))
    for _ in range(MAX_SCALE_STEPS + 1):
        if np.isfinite(scale) and Band(mean, std, scale, alpha=0.0).contains(x):
            return scale
        scale = float(np.nextafter(scale, np.inf))
    raise BandContainment(
        f"no band scale within {MAX_SCALE_STEPS} ulp of the test sample's "
        "maximum standardized deviation contains it"
    )


class MinimalBand(NamedTuple):
    """The tightest band holding a test sample, and the pool's ECDF."""

    band: Band
    stat_ecdf: StatEcdf

    @property
    def alpha(self) -> float:
        """The confidence level of the band's scale on the pool."""
        return self.band.alpha


def minimal_prediction_band(
    test: FRF,
    frf_set: FRFSet,
    grid: FrequencyGrid,
    cfg: BootstrapConfig,
    streams: IndexStreams | None = None,
) -> MinimalBand:
    """Tightest band of the family that still contains the test sample.

    The scale is the test PIR's maximum standardized deviation from the
    set mean (original mean and std, not replicate ones).  Rebuilding the
    bounds as ``mean +/- scale * std`` can round a few ulp inside the test
    PIR, so the scale is raised one ulp at a time, at most MAX_SCALE_STEPS
    times, until the returned band contains the test PIR; it may therefore
    exceed the raw deviation by a few ulp.  `BandContainment` is raised
    when no such scale is found (an overflowing deviation, say).  The
    returned alpha is the fraction of the bootstrap pool at or below that
    returned scale, 1 when the test lies beyond every pooled statistic.
    A test that does not fit the grid is refused before any draw.
    """
    x = pir_from_frf(test, grid).values
    pool = _band_pool(frf_set, grid, cfg, streams)
    scale = _containing_scale(pool.mean, pool.std, x)
    band = Band(mean=pool.mean, std=pool.std, scale=scale,
                alpha=alpha_at(pool.stat_ecdf, scale))
    return MinimalBand(band=band, stat_ecdf=pool.stat_ecdf)
