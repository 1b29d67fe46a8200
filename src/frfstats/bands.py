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
draws and the sorted statistic pool.  The density ranks a test's squared
distance from pick counts and the set's Gram matrix, on a pool or a fresh
draw (`_ranked`); the "max" metric gathers each replication's rows.
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
    mean is recomputed from its resample:
    ``pir_matrix(frf_set, grid)[draws.indices[b]].mean(axis=0)``.
    """

    indices: np.ndarray
    stats: np.ndarray

    def __post_init__(self) -> None:
        fix(self, **vars(self))


def _resample_rows(pirs: np.ndarray, idx: np.ndarray, out: np.ndarray):
    """Means of the resampled rows of `pirs`, and their squared deviations.

    `idx` is one resample, shape (N,), or a block of k, shape (k, N).  The
    rows are gathered into `out`, of shape ``idx.shape + (T,)``, which then
    holds their squared deviations from their resample's mean and is
    returned after the means, shape ``idx.shape[:-1] + (T,)``.
    """
    # mode="clip" gathers without numpy's buffered copy (every index drawn
    # or recorded is in range); it is about 2x faster than mode="raise".
    sq = np.take(pirs, idx, axis=0, out=out, mode="clip")
    # The two ufunc calls of ``sq.mean(axis=-2)``, without its wrapper.
    mean = sq.sum(axis=-2)
    mean /= idx.shape[-1]
    sq -= mean[..., None, :]
    sq *= sq
    return mean, sq


def _block_buffer(pirs: np.ndarray) -> np.ndarray:
    """A block's gathered rows: as many replications as `_per_batch` fits."""
    return np.empty((_per_batch(pirs.nbytes), *pirs.shape))


def _replicates(pirs: np.ndarray, cfg: BootstrapConfig, streams: IndexStreams | None):
    """The band bootstrap's ``cfg.replications`` replications, in blocks of k.

    k is as many replications as fit their gathered rows, N*T doubles
    each, in `resampling._BATCH_BYTES`, and at least one.  Replication b
    resamples the rows of `pirs` from stream b of `streams` (None for
    ``IndexStreams(cfg.seed)``): first in its block's draw, then, while
    its std is zero somewhere, alone under the `_draw_with_spread` rule.
    Each block yields ``(indices, means, stds, sq)``: its accepted
    resamples (k, N), their means and N-1 stds over the rows (k, T), and
    the rows' squared deviations from their means (k, N, T).  `sq` is one
    buffer that the next block overwrites, so a caller may use it as
    scratch and keeps nothing in it.  Callers check the set first
    (`_checked_stats`).
    """
    streams = IndexStreams(cfg.seed) if streams is None else streams
    n, B = pirs.shape[0], cfg.replications
    buf = _block_buffer(pirs)

    def redraws(first, j, gen):
        # A replication's draws: `first`, its row of the block draw, then
        # redraws from its own stream, each gathered into row j of `buf`.
        yield first
        while True:
            idx = gen.integers(0, n, size=n)
            mean, sq = _resample_rows(pirs, idx, buf[j])
            yield (idx, mean), np.sqrt(sq.sum(axis=0) / (n - 1))

    for start in range(0, B, len(buf)):
        gens = [streams.stream(b) for b in range(start, min(start + len(buf), B))]
        idx = np.array([gen.integers(0, n, size=n) for gen in gens])
        means, sq = _resample_rows(pirs, idx, buf[: len(gens)])
        stds = np.sqrt(sq.sum(axis=1) / (n - 1))
        if not (stds > 0.0).all():
            for j in np.flatnonzero(~(stds > 0.0).all(axis=1)):
                (idx[j], means[j]), stds[j] = _draw_with_spread(
                    "a bootstrap replication kept zero spread",
                    next, redraws(((idx[j], means[j]), stds[j]), j, gens[j]),
                )
        yield idx, means, stds, sq


def _replayed(pirs: np.ndarray, indices: np.ndarray):
    """The recorded resamples `indices` in `_replicates`' blocks, as
    ``(indices, means, sq)``; `sq` is again one buffer, overwritten."""
    buf = _block_buffer(pirs)
    for start in range(0, len(indices), len(buf)):
        idx = indices[start : start + len(buf)]
        yield idx, *_resample_rows(pirs, idx, buf[: len(idx)])


def _spans(blocks):
    """Each block of replications after its rows of the record, a slice."""
    start = 0
    for block in blocks:
        rows = slice(start, start + len(block[0]))
        start = rows.stop
        yield rows, *block


@dataclass(frozen=True, eq=False)
class _Pool:
    """One band bootstrap of a set, with everything its readers reuse.

    `key` is what its draws read (`_key`), under the reuse rule of
    `bootstrap_deviation_stats`.  `pirs` is the set's PIR matrix and
    `mean` and `std` its pointwise statistics, as `pir_stats` computes
    them.  `draws` is the record and `stat_ecdf` its sorted statistic pool.
    """

    key: tuple
    pirs: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    draws: ReplicateDraws
    stat_ecdf: StatEcdf

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
    B=1000 its B x N statistics and sorted statistics take 1.6 MB each and
    its indices 0.2 MB.
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
    """The pool for these inputs, checked (`_checked_stats`), drawn and kept on a miss.

    A miss scores each block of `_replicates` at once, in the block's buffer.
    """
    pool = _pool(frf_set, grid, cfg, streams)
    if pool is not None:
        return pool
    _LAST.clear()
    pirs, mean, std = _checked_stats(frf_set, grid)

    B, n = cfg.replications, frf_set.n
    indices = np.empty((B, n), dtype=_index_type(n))
    stats = np.empty((B, n))
    for rows, idx, rep_mean, rep_std, dev in _spans(_replicates(pirs, cfg, streams)):
        # The block's statistics, in its own buffer: dev[j, i, t] is row i's
        # standardized deviation at t from replication j's mean.
        indices[rows] = idx
        np.subtract(pirs, rep_mean[:, None, :], out=dev)
        np.abs(dev, out=dev)
        dev /= rep_std[:, None, :]
        dev.max(axis=2, out=stats[rows])
    pool = _Pool(key=_key(grid, cfg, streams), pirs=pirs, mean=mean, std=std,
                 draws=ReplicateDraws(indices=indices, stats=stats), stat_ecdf=ecdf(stats))
    _LAST[frf_set] = pool
    return pool


def _ranked(test: FRF, frf_set: FRFSet, grid, cfg, metric: str, streams):
    """Each band replication's sorted member distances, and the test's place.

    Returns ``(es, below)``: row b of `es` holds the `metric` distances of
    replication b's resampled rows to its mean, sorted, and ``below[b]``
    counts those at or below the test PIR's distance to that mean.  A miss
    checks the set as the bands do (`_checked_stats`) and draws through
    `_replicates`, unrecorded.  The squared metric ranks from the indices
    (`_squared_ranked`); "max" takes the rows, drawn or replayed
    (`_replayed`), a block of replications at a time.
    """
    x = pir_from_frf(test, grid).values
    pool = _pool(frf_set, grid, cfg, streams)
    if pool is None:
        pirs, mean, _ = _checked_stats(frf_set, grid)
        drawn = ((idx, m, sq) for idx, m, _, sq in _replicates(pirs, cfg, streams))
    else:
        pirs, mean, recorded = pool.pirs, pool.mean, pool.draws.indices
        drawn = _replayed(pirs, recorded)
    if metric == "squared":
        if pool is None:
            recorded = np.empty((cfg.replications, frf_set.n), dtype=_index_type(frf_set.n))
            for rows, idx, _, _ in _spans(drawn):
                recorded[rows] = idx
        return _squared_ranked(pirs, mean, recorded, x)

    # The maximum absolute difference: sqrt(x * x) == |x| exactly while x * x
    # neither underflows nor overflows.  Only a huge test's distance can
    # overflow (finite member statistics are checked up front): it ranks last.
    es, et = np.empty((cfg.replications, frf_set.n)), np.empty(cfg.replications)
    with np.errstate(over="ignore"):
        for rows, _, rep_mean, sq in _spans(drawn):
            np.sqrt(sq.max(axis=2), out=es[rows])
            np.sqrt(np.square(x - rep_mean).max(axis=1), out=et[rows])
    es.sort(axis=1)
    return es, np.count_nonzero(es <= et[:, None], axis=1)


#: Replications per Gram product of `_squared_ranked`, zero-padded: BLAS
#: rounds a row alike only at one product shape, and B must not matter.
_GRAM_ROWS = 64


def _squared_ranked(pirs: np.ndarray, mean: np.ndarray, indices: np.ndarray, x: np.ndarray):
    """`_ranked` for the squared metric (the sum of squared differences over
    the time points), from the set's Gram matrix G = pc pc^T, pc the centred
    PIRs scaled by a power of two (exact, so no product overflows).  With
    c_b replication b's pick counts and d = x - mean, member i's distance to
    replication b's mean is G_ii - 2 (c_b G)_i / N + q_b, with
    q_b = c_b G c_b^T / N^2, and the test's |d|^2 - 2 c_b.(pc d) / N + q_b.
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
    picks = np.searchsorted(kept, first[inverse]).astype(_index_type(n))[indices]
    gram = pc @ pc.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.ldexp(x - mean, -e)
        g, dd = (pc @ d)[:, None], d @ d
    same = np.flatnonzero((pc == d).all(axis=1))[:1]
    es, below = np.empty((B, n)), np.empty(B, dtype=np.intp)
    # Row r of a product's counts starts at cell r * kept.size.
    cells = np.arange(0, _GRAM_ROWS * kept.size, kept.size)[:, None]
    for rows in np.split(np.arange(B), np.arange(_GRAM_ROWS, B, _GRAM_ROWS)):
        counts = np.bincount((picks[rows] + cells[: rows.size]).ravel(),
                             minlength=cells.size * kept.size)
        counts = counts.reshape(_GRAM_ROWS, kept.size).astype(float)
        dist = counts @ gram
        q = np.einsum("bk,bk->b", counts, dist)[: rows.size, None] / n**2
        # Members and test alike: (-2 / N) * products + squared norm + q_b.
        with np.errstate(over="ignore", invalid="ignore"):
            et = (-2.0 / n) * (counts @ g)[: rows.size] + dd + q
        dist = (-2.0 / n) * dist[: rows.size] + gram.diagonal() + q
        et = dist[:, same] if same.size else np.where(np.isnan(et), np.inf, et)
        block = np.sort(np.take_along_axis(dist, picks[rows], axis=1), axis=1)
        es[rows], below[rows] = block, np.count_nonzero(block <= et, axis=1)
    return np.ldexp(es, 2 * e, out=es), below


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
