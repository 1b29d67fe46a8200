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

One band bootstrap serves every band, minimal band and density call on
the same PIR values under the reuse rule of `bootstrap_deviation_stats`:
its pool (`_Pool`) holds the set's PIR matrix, mean and std, the record
of the draws and the sorted statistic pool.  One loop draws the
replications and writes the record (`_replicates`), a block at a time on
one walk (`_blocks`), from pick counts, gathering no resampled row
(`_resample_rows`).  The density ranks a test's squared distance from
pick counts and the set's Gram matrix, on a pool's record or a fresh one
(`_ranked`), a block of replications at a time; the "max" metric reads
the walk's rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._frozen import fix, hold
from .errors import BandContainment, DegenerateSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, _mean_std, pir_from_frf, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
    _index_type,
    _per_batch,
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
    mean is recomputed from its resample's pick counts, as the walk forms it:
    ``np.bincount(draws.indices[b], minlength=N) @ pir_matrix(frf_set, grid) / N``.
    """

    indices: np.ndarray
    stats: np.ndarray

    def __post_init__(self) -> None:
        fix(self, **vars(self))


def _resample_rows(pirs: np.ndarray, idx: np.ndarray, out: np.ndarray):
    """Means and N-1 variances of k resamples `idx` (k, N) of the rows of `pirs`.

    With c a resample's pick counts, its mean is ``c @ pirs / N``, `out`
    (k, N, T) gets every row's squared deviation from it, and its variance
    is ``c @ out / (N - 1)``; returns the means and variances (k, T) and
    `out`.  Each product is a replication's own (1, N) @ (N, T): one
    (k, N) @ (N, T) product would round a row differently with k.
    """
    k, n = idx.shape
    counts = np.bincount((idx + np.arange(0, k * n, n)[:, None]).ravel(), minlength=k * n)
    counts = counts.reshape(k, 1, n).astype(float)
    mean = np.matmul(counts, pirs) / n
    sq = np.subtract(pirs, mean, out=out)
    sq *= sq
    var = np.matmul(counts, sq) / (n - 1)
    return mean[:, 0], var[:, 0], sq


def _blocks(pirs: np.ndarray, count: int):
    """The band walk: `count` replications in blocks of k, each yielding
    ``(rows, out)``, its slice of a (count, N) record and its (k', N, T)
    slice of one buffer, which the next block overwrites.  k is as many
    replications as fit their rows' deviations, N*T doubles each, in
    `resampling._BATCH_BYTES`, and at least one; the last block may be
    shorter."""
    buf = np.empty((_per_batch(pirs.nbytes), *pirs.shape))
    for start in range(0, count, len(buf)):
        rows = slice(start, min(start + len(buf), count))
        yield rows, buf[: rows.stop - start]


def _replicates(pirs: np.ndarray, cfg: BootstrapConfig, streams: IndexStreams | None,
                indices: np.ndarray):
    """The band bootstrap's ``cfg.replications`` replications, on `_blocks`' walk.

    Replication b resamples the rows of `pirs` from stream b of `streams`
    (None for ``IndexStreams(cfg.seed)``): first in its block's draw, then,
    while its variance is zero somewhere, alone under the `_draw_with_spread`
    rule; row b of the record `indices` gets the accepted resample.  Each
    block yields ``(rows, means, var, sq)``: its rows of the record, the
    means and N-1 variances of its resamples (k, T), and every row's squared
    deviation from those means (k, N, T) in the walk's buffer, which a
    caller may use as scratch (`_resample_rows`).  Callers check the set
    first (`_checked_stats`).
    """
    streams = IndexStreams(cfg.seed) if streams is None else streams
    n = pirs.shape[0]

    def redraws(first, gen, out):
        # A replication's draws: `first`, its row of the block draw, then
        # redraws from its own stream, each scored into its buffer row `out`.
        yield first
        while True:
            idx = gen.integers(0, n, size=n)
            mean, var, _ = _resample_rows(pirs, idx[None], out)
            yield (idx, mean[0]), var[0]

    for rows, out in _blocks(pirs, cfg.replications):
        gens = [streams.stream(b) for b in range(rows.start, rows.stop)]
        idx = np.array([gen.integers(0, n, size=n) for gen in gens])
        means, var, sq = _resample_rows(pirs, idx, out)
        if not (var > 0.0).all():
            for j in np.flatnonzero(~(var > 0.0).all(axis=1)):
                (idx[j], means[j]), var[j] = _draw_with_spread(
                    "a bootstrap replication kept zero spread",
                    next, redraws(((idx[j], means[j]), var[j]), gens[j], out[j : j + 1]),
                )
        indices[rows] = idx
        yield rows, means, var, sq


def _replayed(pirs: np.ndarray, indices: np.ndarray):
    """The recorded resamples `indices` on `_blocks`' walk, as
    ``(rows, means, var, sq)``; `sq` is again the walk's buffer."""
    for rows, out in _blocks(pirs, len(indices)):
        yield rows, *_resample_rows(pirs, indices[rows], out)


@dataclass(frozen=True, eq=False)
class _Pool:
    """One band bootstrap of a set, with everything its readers reuse.

    `key` and `pirs` are what its draws read, under the reuse rule of
    `bootstrap_deviation_stats`: `key` is everything but the PIRs (`_key`)
    and `pirs` the set's PIR matrix.  `mean` and `std` are its pointwise
    statistics, as `pir_stats` computes them.  `draws` is the record and
    `stat_ecdf` its sorted statistic pool.
    """

    key: tuple
    pirs: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    draws: ReplicateDraws
    stat_ecdf: StatEcdf

    def __post_init__(self) -> None:
        fix(self, **vars(self))


# The last band bootstrap's pool, held until a miss drops it before
# drawing, so one pool at most.  `_band_pool` returns the pool it built, so
# a concurrent call that replaces the slot costs a rebuild, not a result.
_LAST: _Pool | None = None


def _key(cfg, streams) -> tuple:
    """A pool's reuse key: every input of the draws but the set's PIRs."""
    return streams, cfg.replications, cfg.seed


def _pool(frf_set: FRFSet, grid, cfg, streams) -> tuple[np.ndarray, _Pool | None]:
    """The set's PIR matrix, and the held pool if its draws read exactly
    these inputs: an equal key and the same PIR bits (-0.0 is not +0.0).

    Refuses fewer than three samples first; nothing else is checked here,
    as a pool's PIRs passed `_checked_stats` when it was drawn.
    """
    if frf_set.n < 3:
        raise ValueError("need at least three samples to bootstrap")
    pirs = pir_matrix(frf_set, grid)
    pool = _LAST
    if (pool is None or pool.key != _key(cfg, streams) or pool.pirs.shape != pirs.shape
            or not np.array_equal(pool.pirs.view(np.uint64), pirs.view(np.uint64))):
        return pirs, None
    return pirs, pool


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

    The last bootstrap is held, keyed by what the draws read: the set's
    PIR matrix, bit for bit, and ``(streams, cfg.replications, cfg.seed)``.
    A call whose PIRs and key are equal returns its record, whatever set
    or grid object it was given, and the bands and `estimate_density` read
    its pool.  `IndexStreams` compare by identity (None stands for
    ``IndexStreams(cfg.seed)``, and a streams object must yield the same
    draws per key on every call).  Any other call drops the pool first, so
    one pool at most is held, until a call on other inputs replaces it: at
    N=200, B=1000 its B x N statistics and sorted statistics take 1.6 MB
    each and its indices 0.2 MB.
    """
    return _band_pool(frf_set, grid, cfg, streams).draws


def _checked_stats(pirs: np.ndarray):
    """A set's PIR mean and std, checked before any draw.

    Refuses PIRs too large for finite statistics and zero spread at some
    time point, which every replication would keep.
    """
    mean, std = _mean_std(pirs)
    if np.any(std == 0.0):
        raise DegenerateSpread("the sample set has zero spread at some time point")
    return mean, std


def _band_pool(frf_set: FRFSet, grid, cfg, streams) -> _Pool:
    """The pool for these inputs (`_pool`), or on a miss the set checked
    (`_checked_stats`), drawn and held.

    A miss scores each block of `_replicates` at once, in the block's buffer.
    """
    global _LAST
    pirs, pool = _pool(frf_set, grid, cfg, streams)
    if pool is not None:
        return pool
    _LAST = None
    mean, std = _checked_stats(pirs)

    B, n = cfg.replications, frf_set.n
    indices = np.empty((B, n), dtype=_index_type(n))
    stats = np.empty((B, n))
    for rows, _, rep_var, sq in _replicates(pirs, cfg, streams, indices):
        # The block's statistics, in its own buffer: sq[j, i, t] becomes row
        # i's squared standardized deviation at t from replication j's mean.
        with np.errstate(over="ignore"):
            sq /= rep_var[:, None, :]
        stats[rows] = np.sqrt(sq.max(axis=2))
    # That square overflows once |d| / s passes 1.3e154: such a statistic
    # takes |d| / s, from its replication's moments formed again alone.
    for b, i in zip(*np.nonzero(~np.isfinite(stats))):
        rep_mean, rep_var, _ = _resample_rows(pirs, indices[b : b + 1], np.empty((1, *pirs.shape)))
        stats[b, i] = np.max(np.abs(pirs[i] - rep_mean[0]) / np.sqrt(rep_var[0]))
    pool = _Pool(key=_key(cfg, streams), pirs=pirs, mean=mean, std=std,
                 draws=ReplicateDraws(indices=indices, stats=stats), stat_ecdf=ecdf(stats))
    _LAST = pool
    return pool


def _ranked(test: FRF, frf_set: FRFSet, grid, cfg, metric: str, streams):
    """Each band replication's sorted member distances, and the test's place.

    Checks its inputs and returns the ranking as blocks of replications,
    ``(rows, es, below)``: row j of `es` holds the `metric` distances of
    replication ``rows[j]``'s resampled rows to its mean, sorted, and
    ``below[j]`` counts those at or below the test PIR's distance to that
    mean.  A miss checks the set as the bands do (`_checked_stats`) and
    draws through `_replicates` into one record of its own, which no pool
    keeps; a pool lends its record.  The squared metric ranks that record
    (`_squared_ranked`); "max" reads the walk's blocks, drawn or replayed
    (`_replayed`).
    """
    x = pir_from_frf(test, grid).values
    pirs, pool = _pool(frf_set, grid, cfg, streams)
    if pool is None:
        mean, _ = _checked_stats(pirs)
        recorded = np.empty((cfg.replications, frf_set.n), dtype=_index_type(frf_set.n))
        drawn = _replicates(pirs, cfg, streams, recorded)
    else:
        mean, recorded = pool.mean, pool.draws.indices
        drawn = _replayed(pirs, recorded)
    if metric == "squared":
        if pool is None:
            deque(drawn, maxlen=0)  # runs the draw, which writes `recorded`
        return _squared_ranked(pirs, mean, recorded, x)
    return _max_ranked(drawn, x, recorded)


def _max_ranked(drawn, x: np.ndarray, recorded: np.ndarray):
    """`_ranked` for the maximum absolute difference, from the walk's
    blocks: every row's distance, looked up along the block's resamples in
    the record `recorded`, collected until the blocks hold `_GRAM_ROWS`
    replications or the walk ends (a walk block can hold a single one)."""
    es, et, start = [], [], 0
    for rows, rep_mean, _, sq in drawn:
        es.append(np.take_along_axis(np.sqrt(sq.max(axis=2)), recorded[rows], axis=1))
        # sqrt(x * x) == |x| exactly while x * x neither underflows nor
        # overflows.  Only a huge test's distance can overflow (finite member
        # statistics are checked up front): it ranks last.
        with np.errstate(over="ignore"):
            et.append(np.sqrt(np.square(x - rep_mean).max(axis=1)))
        if rows.stop - start >= _GRAM_ROWS or rows.stop == len(recorded):
            block, test = np.concatenate(es), np.concatenate(et)
            block.sort(axis=1)
            yield slice(start, rows.stop), block, np.count_nonzero(block <= test[:, None], axis=1)
            es, et, start = [], [], rows.stop


#: Replications per Gram product of `_squared_ranked`, zero-padded: BLAS
#: rounds a row alike only at one product shape, and B must not matter.
_GRAM_ROWS = 64


def _squared_ranked(pirs: np.ndarray, mean: np.ndarray, indices: np.ndarray, x: np.ndarray):
    """`_ranked` for the squared metric (the sum of squared differences over
    the time points), a block of `_GRAM_ROWS` replications at a time, from
    the set's Gram matrix G = pc pc^T, pc the centred PIRs scaled by a power
    of two (exact, so no product overflows).  With c_b replication b's pick
    counts and d = x - mean, member i's distance to replication b's mean is
    G_ii - 2 (c_b G)_i / N + q_b, with q_b = c_b G c_b^T / N^2, and the
    test's |d|^2 - 2 c_b.(pc d) / N + q_b.
    Ties stay exact: equal rows share one Gram row, in first-occurrence
    order (kept by negation and power-of-two scaling), and a test equal to a
    row takes its distances; a NaN test distance (inf - inf) ranks last.
    """
    n, B = pirs.shape[0], len(indices)
    e = int(np.frexp(np.max(np.abs(pirs - mean)))[1])
    centred = np.ldexp(pirs - mean, -e)
    # Rows compared as bytes, one void item each, once -0.0 is +0.0.
    keys = (centred + 0.0).view(np.dtype((np.void, centred[0].nbytes)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    kept = np.sort(first)
    pc = centred[kept]
    # Row i's Gram row; a block's picks are looked up as they are ranked,
    # as the index conversion of B x N picks at once would take B x N intp.
    gram_row = np.searchsorted(kept, first[inverse])
    gram = pc @ pc.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.ldexp(x - mean, -e)
        g, dd = (pc @ d)[:, None], d @ d
    same = np.flatnonzero((pc == d).all(axis=1))[:1]
    # Row r of a product's counts starts at cell r * kept.size.
    cells = np.arange(0, _GRAM_ROWS * kept.size, kept.size)[:, None]
    for rows in np.split(np.arange(B), np.arange(_GRAM_ROWS, B, _GRAM_ROWS)):
        picks = gram_row[indices[rows]]
        counts = np.bincount((picks + cells[: rows.size]).ravel(),
                             minlength=cells.size * kept.size)
        counts = counts.reshape(_GRAM_ROWS, kept.size).astype(float)
        dist = counts @ gram
        q = np.einsum("bk,bk->b", counts, dist)[: rows.size, None] / n**2
        # Members and test alike: (-2 / N) * products + squared norm + q_b.
        with np.errstate(over="ignore", invalid="ignore"):
            et = (-2.0 / n) * (counts @ g)[: rows.size] + dd + q
        dist = (-2.0 / n) * dist[: rows.size] + gram.diagonal() + q
        et = dist[:, same] if same.size else np.where(np.isnan(et), np.inf, et)
        block = np.sort(np.take_along_axis(dist, picks, axis=1), axis=1)
        below = np.count_nonzero(block <= et, axis=1)
        yield rows, np.ldexp(block, 2 * e, out=block), below


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
