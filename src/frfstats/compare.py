"""Unpaired two-group comparison via confidence bands on the mean difference.

The curve under test is p(t) = mean PIR of group 1 minus mean PIR of
group 2.  A confidence band around the original-data estimate of p is
calibrated with a nested bootstrap: each outer replication resamples both
groups and measures how far its mean difference strays from the original
one, standardized by a pointwise std estimated with a second, nested
round of resampling inside the replicate.  The null hypothesis "the group
means are equal" is rejected when the band excludes zero anywhere; the
part of the band sticking out past zero forms the residuals, whose
spectrum localizes the difference in frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._frozen import fix
from .bands import Band
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, PIR, frf_from_pir, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
    c_at,
    ecdf,
)

# Stream key layout (resampling.STREAM_LAYOUT 2 to 4): group g in {0, 1} draws
# its Bs sigma resamples from stream (SIGMA_KEY_OFFSET + g,) in one call,
# and outer replication b from stream (b, g) in one call of 1 + Bs rows:
# row 0 is the outer resample, rows 1..Bs are nested positions into it.  A
# redraw is the next call on the same stream.  The group is always the last
# key element, so swapping the groups is swapping the key tails.
SIGMA_KEY_OFFSET = 2


@dataclass(frozen=True, eq=False)
class DifferenceDraws:
    """Intermediates of the comparison bootstrap, for audit and tests."""

    sigma_indices1: np.ndarray
    sigma_indices2: np.ndarray
    sigma_diffs: np.ndarray
    outer_indices1: np.ndarray
    outer_indices2: np.ndarray
    outer_diffs: np.ndarray
    nested_stds: np.ndarray
    stats: np.ndarray

    def __post_init__(self) -> None:
        fix(self, **vars(self))


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Outcome of the unpaired comparison.

    `band` is the corridor diff_mean +/- C_u * sigma at the requested
    confidence.  The rest is derived from it: `residuals` is the part of
    the band beyond zero (the evidence against the null), `residual_frf`
    its spectrum on the `grid` frequencies, and `reject_null` whether any
    residual is nonzero.
    """

    band: Band
    grid: FrequencyGrid
    stat_ecdf: StatEcdf
    draws: DifferenceDraws
    residuals: np.ndarray = field(init=False)
    residual_frf: FRF = field(init=False)
    reject_null: bool = field(init=False)

    def __post_init__(self) -> None:
        r = residuals(self.band)
        fix(self, residuals=r, residual_frf=residual_frf(r, self.grid),
            reject_null=bool(np.any(r != 0.0)))

    @property
    def diff_mean(self) -> np.ndarray:
        """The original-data mean difference: ``band.mean``."""
        return self.band.mean

    @property
    def sigma(self) -> np.ndarray:
        """Its pointwise bootstrap std: ``band.std``."""
        return self.band.std


def residuals(band: Band) -> np.ndarray:
    """The part of the band sticking out past zero, pointwise.

    lower(t) where the whole band is above zero, upper(t) where it is
    below, else 0.
    """
    return np.where(
        band.lower > 0.0, band.lower, np.where(band.upper < 0.0, band.upper, 0.0)
    )


def residual_frf(r, grid: FrequencyGrid) -> FRF:
    """Spectrum of a residual curve on the grid frequencies."""
    return frf_from_pir(PIR(values=r, grid=grid))


def _nested_means(pirs: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """Means of the nested resamples ``pirs[draw[0]][draw[1:]]``, shifted.

    Row j weighs each original row by how often ``draw[0][draw[1 + j]]``
    picks it, so no (Bs, n, T) gather is built.  Every mean is shifted by
    the replicate member ``pirs[draw[0][0]]``: at a time point where all
    replicate members agree the result is then exactly zero, and a zero
    nested spread is detected exactly, not up to rounding.
    """
    n = pirs.shape[0]
    nested = draw[0][draw[1:]]
    rows = nested + n * np.arange(nested.shape[0])[:, None]
    counts = np.bincount(rows.ravel(), minlength=nested.size).reshape(nested.shape)
    return counts @ (pirs - pirs[draw[0][0]]) / n


def compare_unpaired(
    set1: FRFSet,
    set2: FRFSet,
    grid: FrequencyGrid,
    alpha: float,
    cfg: BootstrapConfig,
    streams: IndexStreams | None = None,
) -> ComparisonResult:
    """Confidence band on the difference of group mean PIRs.

    Outer replication b resamples both groups and computes the replicate
    mean difference; its distance from the original mean difference is
    standardized by a pointwise std taken over Bs nested resamples drawn
    within the replicate sets, and the max over time is the replication's
    statistic.  C_u is the alpha-quantile of the B statistics; the band
    is diff_mean +/- C_u * sigma with sigma estimated from Bs resamples
    of the original groups.

    Replications whose nested std hits zero anywhere are redrawn from
    their own streams, at most `resampling.MAX_REDRAWS` times, then
    DegenerateSpread.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if set1.n < 3 or set2.n < 3:
        raise ValueError("need at least three samples in each group")
    if streams is None:
        streams = IndexStreams(cfg.seed)
    pirs1 = pir_matrix(set1, grid)
    pirs2 = pir_matrix(set2, grid)
    n1, n2 = set1.n, set2.n
    bs = cfg.nested_replications

    diff_mean = pirs1.mean(axis=0) - pirs2.mean(axis=0)

    def mean_diff(idx1, idx2):
        return pirs1[idx1].mean(axis=0) - pirs2[idx2].mean(axis=0)

    # One resample's rows at a time, never a (Bs, n, T) gather.
    sigma_idx1 = streams.stream(SIGMA_KEY_OFFSET).integers(0, n1, size=(bs, n1))
    sigma_idx2 = streams.stream(SIGMA_KEY_OFFSET + 1).integers(0, n2, size=(bs, n2))
    sigma_diffs = np.array([mean_diff(i, j) for i, j in zip(sigma_idx1, sigma_idx2)])
    sigma = sigma_diffs.std(axis=0, ddof=1)

    def nested_draw(gen1, gen2):
        draw1 = gen1.integers(0, n1, size=(1 + bs, n1))
        draw2 = gen2.integers(0, n2, size=(1 + bs, n2))
        ndiffs = _nested_means(pirs1, draw1) - _nested_means(pirs2, draw2)
        return (draw1[0], draw2[0]), ndiffs.std(axis=0, ddof=1)

    # Accepted draws are written row by row; keeping draw[0] itself would
    # keep each replication's whole (1 + Bs, n) block alive.
    B, T = cfg.replications, grid.n_samples
    outer_idx1 = np.empty((B, n1), dtype=np.int64)
    outer_idx2 = np.empty((B, n2), dtype=np.int64)
    outer_diffs = np.empty((B, T))
    nested_stds = np.empty((B, T))
    stats = np.empty(B)
    for b in range(B):
        (outer_idx1[b], outer_idx2[b]), nested_stds[b] = _draw_with_spread(
            "a comparison replication kept zero nested spread",
            nested_draw, streams.stream(b, 0), streams.stream(b, 1),
        )
        outer_diffs[b] = mean_diff(outer_idx1[b], outer_idx2[b])
        stats[b] = np.max(np.abs(diff_mean - outer_diffs[b]) / nested_stds[b])
    draws = DifferenceDraws(
        sigma_indices1=sigma_idx1,
        sigma_indices2=sigma_idx2,
        sigma_diffs=sigma_diffs,
        outer_indices1=outer_idx1,
        outer_indices2=outer_idx2,
        outer_diffs=outer_diffs,
        nested_stds=nested_stds,
        stats=stats,
    )

    e = ecdf(draws.stats)
    band = Band(mean=diff_mean, std=sigma, scale=c_at(e, alpha), alpha=alpha)
    return ComparisonResult(band=band, grid=grid, stat_ecdf=e, draws=draws)
