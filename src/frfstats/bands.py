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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._frozen import fix, hold
from .errors import BandContainment, DegenerateSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, _refuse_overflowing_stats, pir_from_frf, pir_matrix, pir_stats
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
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

    `indices` holds each replication's accepted resample and `stats` the
    per-sample max-deviation statistics whose pool calibrates the band.
    A replicate mean is recomputed from its resample:
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

    Replication b resamples the rows of `pirs` from stream (b,) of `streams`
    (None for ``IndexStreams(cfg.seed)``) under the `_draw_with_spread`
    rule, and yields ``(indices, mean, std, sq)``: the accepted resample,
    its mean and N-1 std over the rows, and the rows' squared deviations
    from that mean.  PIRs too large for finite statistics are refused with
    a ValueError before any draw.
    """
    _refuse_overflowing_stats(pirs)
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


# The last band bootstrap, ``set -> (grid, B, seed, streams, draws)``: one
# entry at most (one per concurrent call under threads, each right for its
# key), dropped with its set (see `bootstrap_deviation_stats`).
_LAST: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _recorded(frf_set: FRFSet, grid, cfg, streams) -> ReplicateDraws | None:
    """The last band bootstrap's draws if it read exactly these inputs."""
    grid_, B, seed, streams_, draws = _LAST.get(frf_set, (None,) * 5)
    same = (B, seed) == (cfg.replications, cfg.seed)
    return draws if grid_ is grid and same and streams_ is streams else None


def _resamples(frf_set: FRFSet, grid, cfg, streams):
    """Each band replication's ``(mean, squared deviations)``, for the density.

    Replays the recorded resamples when `_recorded` holds them for these
    inputs, and otherwise draws them through `_replicates`, unrecorded.
    """
    pirs = pir_matrix(frf_set, grid)
    draws = _recorded(frf_set, grid, cfg, streams)
    if draws is not None:
        return (_resample_rows(pirs, idx) for idx in draws.indices)
    return ((mean, sq) for _, mean, _, sq in _replicates(pirs, cfg, streams))


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
    stream, at most `resampling.MAX_REDRAWS` times.  The record keeps the
    B x N indices and statistics, no replicate mean or std.

    The last record is reused while its set lives: a call with the same
    set, grid and `streams` objects (None for ``IndexStreams(cfg.seed)``;
    a streams object must yield the same draws per key on every call) and
    the same `cfg.replications` and `cfg.seed`, the fields the draws read,
    returns it, and `estimate_density` replays its indices.  Any other
    call drops it first, so one B x N record at most is held (3.2 MB at
    N=200, B=1000).
    """
    if frf_set.n < 3:
        raise ValueError("need at least three samples to bootstrap a band")
    draws = _recorded(frf_set, grid, cfg, streams)
    if draws is not None:
        return draws
    _LAST.clear()
    pirs = pir_matrix(frf_set, grid)

    B, n = cfg.replications, frf_set.n
    indices = np.empty((B, n), dtype=np.int64)
    stats = np.empty((B, n))
    for b, (idx, mean, std, _) in enumerate(_replicates(pirs, cfg, streams)):
        indices[b] = idx
        stats[b] = (np.abs(pirs - mean) / std).max(axis=1)
    draws = ReplicateDraws(indices=indices, stats=stats)
    _LAST[frf_set] = (grid, B, cfg.seed, streams, draws)
    return draws


def _calibrated(
    frf_set: FRFSet,
    grid: FrequencyGrid,
    cfg: BootstrapConfig,
    streams: IndexStreams | None,
):
    """The set's PIR mean and std, checked for spread, and its pool's ECDF."""
    mean, std = pir_stats(frf_set, grid)
    if np.any(std == 0.0):
        raise DegenerateSpread(
            "the sample set has zero spread at some time point"
        )
    draws = bootstrap_deviation_stats(frf_set, grid, cfg, streams)
    return mean, std, ecdf(draws.pool)


def prediction_band(
    frf_set: FRFSet,
    grid: FrequencyGrid,
    alpha: float,
    cfg: BootstrapConfig,
    streams: IndexStreams | None = None,
) -> Band:
    """Band expected to contain a fresh draw with confidence `alpha`; calls on
    one set, grid, config and `streams` share one pool (`bootstrap_deviation_stats`)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    mean, std, e = _calibrated(frf_set, grid, cfg, streams)
    return Band(mean=mean, std=std, scale=c_at(e, alpha), alpha=alpha)


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
    """
    mean, std, e = _calibrated(frf_set, grid, cfg, streams)
    scale = _containing_scale(mean, std, pir_from_frf(test, grid).values)
    band = Band(mean=mean, std=std, scale=scale, alpha=alpha_at(e, scale))
    return MinimalBand(band=band, stat_ecdf=e)
