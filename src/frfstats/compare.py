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

from dataclasses import dataclass

import numpy as np

from .bands import MAX_REDRAWS, Band
from .errors import DegenerateSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, PIR, frf_from_pir, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    c_at,
    ecdf,
    resample_indices,
)

# Stream key layout: sigma draw j uses (j, 2) and (j, 3) for the two
# groups, outer replication b uses (b, 0) and (b, 1), and nested draw b2
# inside b uses (b, b2, 0) and (b, b2, 1).  Keeping one key per group
# makes swapping the groups equivalent to swapping the key tails.
SIGMA_KEY_OFFSET = 2


@dataclass(frozen=True)
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
        for name in self.__dataclass_fields__:
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of the unpaired comparison.

    `diff_mean` is the original-data mean difference, `sigma` its
    pointwise bootstrap std, and `band` the corridor diff_mean +/- C_u *
    sigma at the requested confidence.  `residuals` is the part of the
    band beyond zero (the evidence against the null) and `residual_frf`
    its spectrum on the grid frequencies.
    """

    diff_mean: np.ndarray
    sigma: np.ndarray
    band: Band
    reject_null: bool
    residuals: np.ndarray
    residual_frf: FRF
    stat_ecdf: StatEcdf
    draws: DifferenceDraws

    def __post_init__(self) -> None:
        self.diff_mean.setflags(write=False)
        self.sigma.setflags(write=False)
        self.residuals.setflags(write=False)


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
    return frf_from_pir(PIR(values=np.asarray(r, dtype=float), grid=grid))


def _mean_difference(pirs1, idx1, pirs2, idx2) -> np.ndarray:
    return pirs1[idx1].mean(axis=0) - pirs2[idx2].mean(axis=0)


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
    their own streams, at most MAX_REDRAWS times, then DegenerateSpread.
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

    sigma_idx1 = np.stack(
        [
            resample_indices(n1, streams.stream(j, SIGMA_KEY_OFFSET))
            for j in range(bs)
        ]
    )
    sigma_idx2 = np.stack(
        [
            resample_indices(n2, streams.stream(j, SIGMA_KEY_OFFSET + 1))
            for j in range(bs)
        ]
    )
    sigma_diffs = np.stack(
        [_mean_difference(pirs1, sigma_idx1[j], pirs2, sigma_idx2[j]) for j in range(bs)]
    )
    sigma = sigma_diffs.std(axis=0, ddof=1)

    def one_replication(b):
        outer1 = streams.stream(b, 0)
        outer2 = streams.stream(b, 1)
        nested1 = [streams.stream(b, b2, 0) for b2 in range(bs)]
        nested2 = [streams.stream(b, b2, 1) for b2 in range(bs)]
        for _ in range(1 + MAX_REDRAWS):
            idx1 = resample_indices(n1, outer1)
            idx2 = resample_indices(n2, outer2)
            yb1 = pirs1[idx1]
            yb2 = pirs2[idx2]
            xb = yb1.mean(axis=0) - yb2.mean(axis=0)
            nidx1 = np.stack([resample_indices(n1, g) for g in nested1])
            nidx2 = np.stack([resample_indices(n2, g) for g in nested2])
            ndiffs = yb1[nidx1].mean(axis=1) - yb2[nidx2].mean(axis=1)
            sb = ndiffs.std(axis=0, ddof=1)
            if np.all(sb > 0.0):
                stat = float(np.max(np.abs(diff_mean - xb) / sb))
                return idx1, idx2, xb, sb, stat
        raise DegenerateSpread(
            f"a comparison replication kept zero nested spread after "
            f"{MAX_REDRAWS} redraws"
        )

    rows = [one_replication(b) for b in range(cfg.replications)]
    draws = DifferenceDraws(
        sigma_indices1=sigma_idx1,
        sigma_indices2=sigma_idx2,
        sigma_diffs=sigma_diffs,
        outer_indices1=np.stack([r[0] for r in rows]),
        outer_indices2=np.stack([r[1] for r in rows]),
        outer_diffs=np.stack([r[2] for r in rows]),
        nested_stds=np.stack([r[3] for r in rows]),
        stats=np.array([r[4] for r in rows]),
    )

    e = ecdf(draws.stats, cfg.bins)
    scale = c_at(e, alpha)
    band = Band(mean=diff_mean, std=sigma, scale=scale, alpha=alpha)
    r = residuals(band)
    return ComparisonResult(
        diff_mean=diff_mean,
        sigma=sigma,
        band=band,
        reject_null=bool(np.any(r != 0.0)),
        residuals=r,
        residual_frf=residual_frf(r, grid),
        stat_ecdf=e,
        draws=draws,
    )
