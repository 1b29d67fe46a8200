"""Bootstrap estimates of the distribution of a test sample's distance.

The scalar studied is the distance between the test sample's PIR and the
population mean PIR.  Each replication resamples the set, ranks the test
distance among the resampled members' own distances to the replicate
mean, and reads a CDF value off the rank; a PDF value follows as an
incremental ratio over a small rank window.  Means and stds over the B
replications summarize both estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._frozen import fix
from .bands import _ranked
from .errors import ZeroSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet
from .resampling import BootstrapConfig, IndexStreams

#: Fraction of replications allowed to have a zero-width PDF window.
MAX_SKIPPED_FRACTION = 0.2

NUMERATOR_MODES = ("code-compatible", "index-span")
METRICS = ("squared", "max")


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """CDF/PDF estimate of the test distance, with per-replication detail.

    `pdf_stats` holds NaN where a replication's window had zero width and
    its PDF statistic was skipped; `window` is the half-width Ds of the
    rank window.  The means and N-1 stds are derived: `cdf_*` over
    `cdf_stats`, `pdf_*` over the non-NaN `pdf_stats`.
    """

    window: int
    numerator_mode: str
    cdf_stats: np.ndarray
    pdf_stats: np.ndarray
    cdf_mean: float = field(init=False)
    cdf_std: float = field(init=False)
    pdf_mean: float = field(init=False)
    pdf_std: float = field(init=False)

    def __post_init__(self) -> None:
        cdf, pdf = self.cdf_stats, self.pdf_stats
        (cdf_mean, cdf_std), (pdf_mean, pdf_std) = _summary(cdf), _summary(pdf[~np.isnan(pdf)])
        fix(self, cdf_stats=cdf, pdf_stats=pdf, cdf_mean=cdf_mean, cdf_std=cdf_std,
            pdf_mean=pdf_mean, pdf_std=pdf_std)

    @property
    def skipped(self) -> int:
        """Replications whose PDF statistic was dropped for zero spread."""
        return int(np.count_nonzero(np.isnan(self.pdf_stats)))


def _summary(values: np.ndarray) -> tuple[float, float]:
    """Mean and N-1 std of `values` (std 0 for one value).

    Both are taken on the values scaled by 2**-k, 2**k just above the
    largest magnitude, and scaled back.  That scaling is exact, and keeps
    the squared deviations of PDF statistics near 1e300 (a set at about
    1e-150) from overflowing.
    """
    k = int(np.frexp(np.max(np.abs(values), initial=0.0))[1])
    scaled = np.ldexp(values, -k)
    std = np.ldexp(scaled.std(ddof=1), k) if values.size > 1 else 0.0
    return float(np.ldexp(scaled.mean(), k)), float(std)


def _window(rank: np.ndarray, n: int, ds: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based ends ``(i1, i2)`` of each rank's window, in its three
    cases: low, high and interior."""
    low, high = rank - ds < 1, rank + ds > n
    i1 = np.where(low, 1, np.where(high, n - ds, rank - ds))
    i2 = np.where(low, 1 + ds, np.where(high, n, rank + ds))
    return i1, i2


def estimate_density(
    test: FRF,
    frf_set: FRFSet,
    grid: FrequencyGrid,
    cfg: BootstrapConfig,
    metric: str = "squared",
    numerator_mode: str = "code-compatible",
    streams: IndexStreams | None = None,
) -> DensityEstimate:
    """Estimate CDF and PDF of the test sample's distance from the mean.

    Per replication b: take resample b of the band bootstrap (the same
    stream b and the same redraw rule as `bootstrap_deviation_stats`),
    sort the resampled members' distances to its mean, and rank the test
    distance as the first position exceeding it (N when none does).
    `metric` is "squared" (sum of squared differences) or "max" (maximum
    absolute difference).  The CDF statistic is rank/N.  The PDF statistic
    divides the rank-window mass by the distance increment across the
    window [rank - Ds, rank + Ds], Ds = max(1, N // 20), which spans 2*Ds
    ranks; a window running past either end becomes [1, 1 + Ds] or
    [N - Ds, N] and spans only Ds ranks.  "code-compatible" keeps Ds in
    the numerator for every window, "index-span" uses the actual span.

    Where `bootstrap_deviation_stats`' reuse rule finds a pool for these
    inputs, its accepted resamples are read, not redrawn, and every number
    is bit-identical to a fresh draw's.  The squared metric ranks the test
    from the set's Gram matrix and pick counts (ranks and member ties exact,
    distances up to rounding); "max" takes each replicate mean.

    Raises GridMismatch first for a test that does not fit the grid, ZeroSpread
    when over 20% of replications had a zero-width distance window, and
    DegenerateSpread when the set has zero spread at some time point (before
    any draw, as the bands) or a replication kept it through every redraw.
    """
    if numerator_mode not in NUMERATOR_MODES:
        raise ValueError(f"numerator_mode must be one of {NUMERATOR_MODES}")
    if not isinstance(metric, str) or metric not in METRICS:
        raise ValueError(f"{metric!r} is not a valid metric")
    n, B = frf_set.n, cfg.replications
    ds = max(1, n // 20)

    # 1-based rank of the test distance among the sorted member
    # distances, first position strictly above it (N when none is), and
    # the distances at its window's ends, read off each block of the ranking.
    rank, lo, hi = np.empty(B, dtype=np.intp), np.empty(B), np.empty(B)
    for rows, es, below in _ranked(test, frf_set, grid, cfg, metric, streams):
        r = np.minimum(below + 1, n)
        i1, i2 = _window(r, n, ds)
        j = np.arange(len(es))
        rank[rows], lo[rows], hi[rows] = r, es[j, i1 - 1], es[j, i2 - 1]
    cdf_stats = rank / n
    i1, i2 = _window(rank, n, ds)
    width = hi - lo
    numer = float(ds) if numerator_mode == "code-compatible" else (i2 - i1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pdf_stats = np.where(width > 0.0, numer / (n * width), np.nan)

    skipped = np.count_nonzero(np.isnan(pdf_stats))
    if skipped > MAX_SKIPPED_FRACTION * B:
        raise ZeroSpread(
            f"{skipped} of {B} replications had a zero-width distance window"
        )
    return DensityEstimate(
        window=ds,
        numerator_mode=numerator_mode,
        cdf_stats=cdf_stats,
        pdf_stats=pdf_stats,
    )
