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
from .errors import DegenerateSpread
from .grid import FrequencyGrid
from .pir import FRF, FRFSet, PIR, _basis, _refuse_overflowing_stats, frf_from_pir, pir_matrix
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    _draw_with_spread,
    _index_type,
    _per_batch,
    _tie_columns,
    c_at,
    ecdf,
)

# Group g draws everything from stream GROUP_KEY_OFFSET + g (the layout is
# under `resampling.STREAM_LAYOUT`).  A replication's block follows every
# block drawn before it on that stream, redraws included, so the
# replications run serially.  The two keys, 2 and 3, differ only in the
# last bit: swapping the groups flips it, which the tests' MirroredStreams
# relies on.
GROUP_KEY_OFFSET = 2


def _batch_blocks(n: int, bs: int, m: int, t: int) -> int:
    """Most (1 + Bs, n) blocks in a batch for a group of n, on a grid of m
    frequencies and T samples: as many as fit in `resampling._BATCH_BYTES`,
    and at least one.

    A group's share of a batch holds, per block, its indices and weights
    (an int64 and a float64 an entry), its Bs * 2m nested and n * 2m
    shifted coefficients, and two rows of T doubles: its outer means and
    its share of the block's nested std and statistic.  Weighing briefly
    takes two more arrays the size of the indices.
    """
    return _per_batch(16 * (1 + bs) * n + 8 * (bs + n) * 2 * m + 2 * 8 * t)


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


def _weigh_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outer resamples and count weights of a stack of blocks.

    Returns ``(first, w)``, of shapes (k, n) and (k, 1 + Bs, n).  Row 0 of
    block j's weights counts its outer resample ``first[j] = blocks[j, 0]``'s
    picks of each original row, and row 1 + i those of
    ``first[j][blocks[j, 1 + i]]``, each over n, so no (Bs, n, T) gather is
    built.  The counts are laid out row by row across the blocks, so the
    sums over the nested rows run along long rows; `w` is a view of that
    layout.  The nested rows are centred over the Bs rows, so the nested
    means come out centred without a (Bs, T) pass; a member picked equally
    often in every nested row, as the integer counts decide, gets a centred
    weight of exactly zero, which the float mean of its equal weights need
    not give.  Each block's weights are bit-identical to those of a stack
    of that block alone.  No block is kept.
    """
    k, rows, n = blocks.shape
    first = blocks[:, 0].copy()
    picks = np.take(first, blocks + np.arange(0, first.size, n).reshape(k, 1, 1))
    picks[:, 0] = first
    picks += np.arange(0, picks.size, n).reshape(rows, k).T[:, :, None]
    counts = np.bincount(picks.ravel(), minlength=picks.size).reshape(rows, k, n)
    del picks  # freed before the weights are made
    w = counts / n
    nested = w[1:]
    same = (counts[2:] == counts[1:-1]).all(axis=0)
    nested -= np.where(same, nested[0], nested.sum(axis=0) / (rows - 1))
    return first, w.transpose(1, 0, 2)


def _held(pirs, ties, outers, weights) -> np.ndarray:
    """The time points where both groups' nested deviations are exactly zero.

    Group g's nested deviation at t, ``w[1:] @ (p - p[outer[0]])`` in PIR
    space, is exactly zero in every row when each member with a nonzero
    nested weight equals the first pick ``p[outer[0], t]`` there: the group
    holds still at t.  Besides the first pick, that can only be a member
    tied with it, so only in the group's tie columns `ties[g]`, unless no
    other member carries a nonzero weight, when it holds still everywhere.
    """
    held = np.ones(pirs[0].shape[1], dtype=bool)
    for p, cols, outer, w in zip(pirs, ties, outers, weights):
        moving = (w[1:] != 0.0).any(axis=0)
        moving[outer[0]] = False
        if moving.any():
            still = np.zeros_like(held)
            still[cols] = (p[moving][:, cols] == p[outer[0], cols]).all(axis=0)
            held &= still
    return held


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

    Each group is set up once: its PIR matrix, refused if its statistics
    would overflow, its FRF coefficients [Re H, Im H] (n, 2m), its tie
    columns (`resampling._tie_columns`) and its stream.  Blocks are scored
    a batch at a time, the sigma block alone and then k blocks from each
    group (`_batch_blocks`), weighed in one call per group
    (`_weigh_blocks`).  `score` forms a batch's resample means from the
    weights in stacked products: the outer means on the PIRs, the centred
    nested means on the 2m coefficients, whose difference one (Bs, 2m) @
    (2m, T) product per block by the grid's basis (`pir._basis`) maps to
    time.  The nested std is the root of the summed squares of those
    centred nested mean differences over Bs - 1, with no centring pass of
    its own; it is exactly zero where both groups hold still (`_held`), as
    the PIR-space means would give it, not zero up to rounding.
    A sigma with zero spread at some time point, which would give a
    zero-width band there, raises DegenerateSpread before any replication
    is drawn.  Only the redraw rule and the record writes run per
    replication: a block whose nested std hits zero anywhere is passed
    over for the next one, batch boundaries included, at most
    `resampling.MAX_REDRAWS` times (`resampling._draw_with_spread`), then
    DegenerateSpread.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if set1.n < 3 or set2.n < 3:
        raise ValueError("need at least three samples in each group")
    streams = IndexStreams(cfg.seed) if streams is None else streams
    sets, bs, B = (set1, set2), cfg.nested_replications, cfg.replications
    pirs = [pir_matrix(s, grid) for s in sets]
    for p in pirs:
        _refuse_overflowing_stats(p, bs)
    diff_mean = pirs[0].mean(axis=0) - pirs[1].mean(axis=0)
    coefs = [np.hstack([s.values.real, s.values.imag]) for s in sets]
    basis = _basis(grid)
    ties = [_tie_columns(p) for p in pirs]
    tied = any(cols.size for cols in ties)
    buf = np.empty((bs, grid.n_samples))
    # Each group's record indices, in the record's narrow index type: its
    # Bs sigma resamples, then its B accepted outer resamples.
    indices = [np.empty((bs + B, s.n), dtype=_index_type(s.n)) for s in sets]
    gens = [streams.stream(GROUP_KEY_OFFSET + g) for g in (0, 1)]

    def score(weighed):
        # Each block of a batch, ((outers, stat), nested std), from both
        # groups' weighed blocks.  The nested weights multiply the FRF
        # coefficients shifted by the outer resample's first member, and
        # the difference c of the groups' nested means goes to time one
        # block at a time in the call's one buffer.  Where both groups hold
        # still the PIR-space means are exactly zero, but c @ basis rounds
        # to about 1e-17: the variance is set to zero there.  With no tie
        # column in either group, both hold still only where both do
        # everywhere, and there c is exactly zero already.  A block with
        # zero spread gets a statistic too, which its redraw discards.
        (first1, w1), (first2, w2) = weighed
        (mean1, c), (mean2, c2) = [
            (np.matmul(w[:, :1], p)[:, 0], np.matmul(w[:, 1:], f - f[first[:, :1]]))
            for p, f, (first, w) in zip(pirs, coefs, weighed)
        ]
        c -= c2
        var = np.empty(mean1.shape)
        for j, cj in enumerate(c):
            dev = np.matmul(cj, basis, out=buf)
            dev *= dev
            dev.sum(axis=0, out=var[j])
            if tied:
                var[j, _held(pirs, ties, (first1[j], first2[j]), (w1[j], w2[j]))] = 0.0
        var /= bs - 1
        nested_std = np.sqrt(var, out=var)
        gap = np.subtract(diff_mean, mean1 - mean2, out=mean1)
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = (np.abs(gap, out=gap) / nested_std).max(axis=1)
        return zip(zip(zip(first1, first2), stat), nested_std)

    # Sigma is the nested spread of the identity row over the Bs sigma
    # resamples, each group's first draw.
    for idx, gen, s in zip(indices, gens, sets):
        idx[:bs] = gen.integers(0, s.n, size=(bs, s.n))
    [(_, sigma)] = score([_weigh_blocks(np.vstack([np.arange(s.n), idx[:bs]])[None])
                          for idx, s in zip(indices, sets)])
    if np.any(sigma == 0.0):
        raise DegenerateSpread("the comparison's sigma has zero spread at some time point")
    cap = min(_batch_blocks(s.n, bs, grid.m, grid.n_samples) for s in sets)

    def scored():
        # The replications' blocks, a batch at a time: k blocks from each
        # group, k no more than the replications still to accept, B - b, so
        # every block drawn is read unless the redraws run out.
        while True:
            k = min(cap, B - b)
            yield from score([_weigh_blocks(gen.integers(0, s.n, size=(k, 1 + bs, s.n)))
                              for gen, s in zip(gens, sets)])

    stats = np.empty(B)
    blocks = scored()
    for b in range(B):
        (outers, stats[b]), _ = _draw_with_spread(
            "a comparison replication kept zero nested spread", next, blocks
        )
        for idx, outer in zip(indices, outers):
            idx[bs + b] = outer
    draws = DifferenceDraws(
        sigma_indices1=indices[0][:bs],
        sigma_indices2=indices[1][:bs],
        outer_indices1=indices[0][bs:],
        outer_indices2=indices[1][bs:],
        stats=stats,
    )

    e = ecdf(draws.stats)
    band = Band(mean=diff_mean, std=sigma, scale=c_at(e, alpha), alpha=alpha)
    return ComparisonResult(band=band, grid=grid, stat_ecdf=e, draws=draws)
