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
from .pir import FRF, FRFSet, PIR, _refuse_overflowing_stats, frf_from_pir, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
    _index_type,
    c_at,
    ecdf,
)

# Stream key layout (resampling.STREAM_LAYOUT 6): group g in {0, 1} draws
# everything from one stream, (GROUP_KEY_OFFSET + g,).  Its first call is
# the (Bs, n_g) block of sigma resamples; each outer replication then
# takes the next call, a (1 + Bs, n_g) block whose row 0 is the outer
# resample and rows 1..Bs are nested positions into it.  A redraw is the
# next call on the same stream, so a replication's block follows every
# block drawn before it, redraws included; the loop is serial.  The group
# is always the last key element, so swapping the groups is swapping the
# key tails.
GROUP_KEY_OFFSET = 2


@dataclass(frozen=True, eq=False)
class DifferenceDraws:
    """What the comparison bootstrap drew, for audit and tests.

    The Bs sigma resamples and, per outer replication, the two groups'
    accepted resamples, each index in the narrowest unsigned integer type
    that holds its group's N-1, plus `stats`, the B max-deviation
    statistics.
    Replication b's mean difference is recomputed, up to rounding, from
    its resamples as ``pir_matrix(set1, grid)[draws.outer_indices1[b]]
    .mean(axis=0) - pir_matrix(set2, grid)[draws.outer_indices2[b]]
    .mean(axis=0)``; its nested std is not kept.
    """

    sigma_indices1: np.ndarray
    sigma_indices2: np.ndarray
    outer_indices1: np.ndarray
    outer_indices2: np.ndarray
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


def _resample_means(pirs: np.ndarray, draw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer mean and centred nested means of one (1 + Bs, n) block.

    Row 0 of the weights counts the outer resample ``draw[0]``'s picks of
    each original row, row 1 + j those of ``draw[0][draw[1 + j]]``, each
    over n, so no (Bs, n, T) gather is built.  The nested weights are
    centred over their rows, so the nested means come out centred without
    a (Bs, T) pass, and they multiply the rows shifted by the member
    ``pirs[draw[0][0]]``: a member outside the resample weighs exactly
    zero in every row, so where all its members agree the nested means
    are exactly zero, not zero up to rounding.
    """
    n = pirs.shape[0]
    picks = np.vstack([draw[0], draw[0][draw[1:]]])
    rows = picks + n * np.arange(picks.shape[0])[:, None]
    w = np.bincount(rows.ravel(), minlength=picks.size).reshape(picks.shape) / n
    w[1:] -= w[1:].mean(axis=0)
    return w[0] @ pirs, w[1:] @ (pirs - pirs[draw[0][0]])


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
    is diff_mean +/- C_u * sigma, sigma being the same nested std taken
    over Bs resamples of the original groups (the identity resample).

    Every resample mean comes from `_resample_means`, so the nested std
    is the root of the summed squares of the centred nested mean
    differences over Bs - 1, with no centring pass of its own.
    Replications whose nested std hits zero anywhere are redrawn from the
    groups' streams, at most `resampling.MAX_REDRAWS` times, then
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
    _refuse_overflowing_stats(pirs1, bs)
    _refuse_overflowing_stats(pirs2, bs)

    diff_mean = pirs1.mean(axis=0) - pirs2.mean(axis=0)

    def spread(draw1, draw2):
        mean1, dev = _resample_means(pirs1, draw1)
        mean2, dev2 = _resample_means(pirs2, draw2)
        dev -= dev2
        dev *= dev
        return mean1 - mean2, np.sqrt(dev.sum(axis=0) / (bs - 1))

    gen1 = streams.stream(GROUP_KEY_OFFSET)
    gen2 = streams.stream(GROUP_KEY_OFFSET + 1)
    sigma1 = np.vstack([np.arange(n1), gen1.integers(0, n1, size=(bs, n1))])
    sigma2 = np.vstack([np.arange(n2), gen2.integers(0, n2, size=(bs, n2))])
    _, sigma = spread(sigma1, sigma2)

    def nested_draw(gen1, gen2):
        draw1 = gen1.integers(0, n1, size=(1 + bs, n1))
        draw2 = gen2.integers(0, n2, size=(1 + bs, n2))
        xb, nested_std = spread(draw1, draw2)
        return (draw1[0], draw2[0], xb), nested_std

    # Accepted draws are written row by row; keeping draw[0] itself would
    # keep each replication's whole (1 + Bs, n) block alive.
    B = cfg.replications
    outer_idx1 = np.empty((B, n1), dtype=_index_type(n1))
    outer_idx2 = np.empty((B, n2), dtype=_index_type(n2))
    stats = np.empty(B)
    for b in range(B):
        (outer_idx1[b], outer_idx2[b], xb), nested_std = _draw_with_spread(
            "a comparison replication kept zero nested spread",
            nested_draw, gen1, gen2,
        )
        stats[b] = np.max(np.abs(diff_mean - xb) / nested_std)
    draws = DifferenceDraws(
        sigma_indices1=sigma1[1:].astype(_index_type(n1)),
        sigma_indices2=sigma2[1:].astype(_index_type(n2)),
        outer_indices1=outer_idx1,
        outer_indices2=outer_idx2,
        stats=stats,
    )

    e = ecdf(draws.stats)
    band = Band(mean=diff_mean, std=sigma, scale=c_at(e, alpha), alpha=alpha)
    return ComparisonResult(band=band, grid=grid, stat_ecdf=e, draws=draws)
