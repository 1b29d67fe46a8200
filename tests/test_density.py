"""Tests for the distance CDF/PDF bootstrap."""

import numpy as np
import pytest

from frfstats import DegenerateSpread, ZeroSpread, derive_grid
from frfstats.bands import bootstrap_deviation_stats
from frfstats.density import estimate_density
from frfstats.pir import FRF, FRFSet, pir_from_frf, pir_matrix
from frfstats.resampling import BootstrapConfig, IndexStreams

from support import EXPERIMENT_FREQS, FixedStreams

GRID = derive_grid([1.0])


def five_frfs():
    rng = np.random.default_rng(21)
    return FRFSet(rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1)))


def squared_distance(d):
    return float(np.sum(d**2))


def brute_force(pirs, picks, x_test, ds, numerator=None, distance=squared_distance):
    """Straight-line mirror of one replication, 1-based like the reference."""
    rows = pirs[list(picks)]
    mean = rows.mean(axis=0)
    es = np.sort([distance(row - mean) for row in rows])
    et = distance(x_test - mean)
    n = len(picks)
    idx = sum(1 for d in es if d <= et) + 1
    if idx > n:
        idx = n
    i1, i2 = idx - ds, idx + ds
    if i1 < 1:
        i1, i2 = 1, 1 + ds
    if i2 > n:
        i1, i2 = n - ds, n
    width = es[i2 - 1] - es[i1 - 1]
    numer = ds if numerator is None else (i2 - i1)
    return idx / n, numer / (n * width)


INJECTED = [[0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [4, 4, 4, 2, 2]]


def injected_streams():
    return FixedStreams({(b,): [draw] for b, draw in enumerate(INJECTED)})


def test_injected_ranks_and_pdf_match_brute_force():
    frfs = five_frfs()
    pirs = pir_matrix(frfs, GRID)
    test = FRF(frfs.values.mean(axis=0) + 0.3 - 0.1j)
    x_test = pir_from_frf(test, GRID).values
    cfg = BootstrapConfig(replications=3, seed=0)
    est = estimate_density(test, frfs, GRID, cfg, streams=injected_streams())

    assert est.window == 1
    for b, picks in enumerate(INJECTED):
        cdf, pdf = brute_force(pirs, picks, x_test, est.window)
        assert est.cdf_stats[b] == pytest.approx(cdf, abs=1e-12)
        assert est.pdf_stats[b] == pytest.approx(pdf, abs=1e-12)
    assert est.cdf_mean == pytest.approx(np.mean(est.cdf_stats), abs=1e-15)
    assert est.pdf_std == pytest.approx(np.std(est.pdf_stats, ddof=1), abs=1e-15)


def test_numerator_modes_interior_and_edge():
    frfs = five_frfs()
    test = FRF(frfs.values.mean(axis=0) + 0.3 - 0.1j)
    cfg = BootstrapConfig(replications=3, seed=0)
    code = estimate_density(test, frfs, GRID, cfg, streams=injected_streams())
    span = estimate_density(
        test, frfs, GRID, cfg, numerator_mode="index-span", streams=injected_streams()
    )
    # Interior windows span 2*Ds indices, so the index-span statistic is
    # exactly twice the reference one; edge-clamped windows span Ds and
    # the two modes agree there.
    interior = (code.cdf_stats * 5 > 1) & (code.cdf_stats * 5 < 5)
    assert interior.any()
    np.testing.assert_allclose(span.pdf_stats[interior], 2 * code.pdf_stats[interior], rtol=1e-12)
    if (~interior).any():
        np.testing.assert_allclose(span.pdf_stats[~interior], code.pdf_stats[~interior], rtol=1e-12)


# Resampling with replacement duplicates rows, and duplicated rows tie
# exactly in distance.  With fewer than 40 samples the window half-width
# is 1 and a single duplicate adjacent to the rank collapses the window,
# so the statistical tests below use N = 40 where a collapse needs a
# five-fold duplicate and skips stay well under the 20% error threshold.


def forty_frfs():
    rng = np.random.default_rng(22)
    return FRFSet(rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1)))


def test_far_test_saturates_cdf():
    frfs = forty_frfs()
    far = FRF(frfs.values.mean(axis=0) + 50.0 + 50.0j)
    cfg = BootstrapConfig(replications=60, seed=1)
    est = estimate_density(far, frfs, GRID, cfg)
    assert est.cdf_mean == 1.0
    assert est.cdf_std == 0.0


@pytest.mark.parametrize("metric", ["squared", "max"])
def test_overflowing_test_distance_ranks_last(metric):
    # The test's squared distance overflows to +inf without a numpy
    # warning and ranks last, exactly like any test beyond every member.
    frfs = forty_frfs()
    cfg = BootstrapConfig(replications=60, seed=1)
    far = FRF(frfs.values.mean(axis=0) + 50.0 + 50.0j)
    huge = FRF(np.array([1e200 + 1e200j]))
    est = estimate_density(huge, frfs, GRID, cfg, metric=metric)
    assert np.all(est.cdf_stats == 1.0)
    np.testing.assert_array_equal(
        est.pdf_stats, estimate_density(far, frfs, GRID, cfg, metric=metric).pdf_stats
    )


def test_mean_test_ranks_low():
    frfs = forty_frfs()
    test = FRF(frfs.values.mean(axis=0))
    cfg = BootstrapConfig(replications=60, seed=2)
    est = estimate_density(test, frfs, GRID, cfg)
    assert est.cdf_mean <= 2 / 40 + 3 * est.cdf_std


def test_cdf_monotone_in_distance():
    frfs = forty_frfs()
    mean = frfs.values.mean(axis=0)
    cfg = BootstrapConfig(replications=50, seed=3)
    near = estimate_density(FRF(mean), frfs, GRID, cfg)
    far = estimate_density(FRF(mean + 10.0 + 5.0j), frfs, GRID, cfg)
    assert near.cdf_mean <= far.cdf_mean


def test_scaling_preserves_ranks_and_rescales_pdf():
    frfs = forty_frfs()
    test = FRF(frfs.values.mean(axis=0) + 0.3 - 0.1j)
    cfg = BootstrapConfig(replications=30, seed=4)
    base = estimate_density(test, frfs, GRID, cfg)
    scaled = estimate_density(
        FRF(2.0 * test.values), FRFSet(2.0 * frfs.values), GRID, cfg
    )
    np.testing.assert_array_equal(base.cdf_stats, scaled.cdf_stats)
    np.testing.assert_allclose(scaled.pdf_stats, base.pdf_stats / 4.0, rtol=1e-13)


def test_max_metric():
    frfs = five_frfs()
    pirs = pir_matrix(frfs, GRID)
    test = FRF(frfs.values.mean(axis=0) + 0.2 + 0.1j)
    x_test = pir_from_frf(test, GRID).values
    cfg = BootstrapConfig(replications=1, seed=0)
    picks = [1, 3, 3, 0, 2]

    streams = FixedStreams({(0,): [picks]})
    est = estimate_density(test, frfs, GRID, cfg, metric="max", streams=streams)
    cdf, pdf = brute_force(
        pirs, picks, x_test, est.window, distance=lambda d: float(np.max(np.abs(d)))
    )
    assert est.cdf_stats[0] == pytest.approx(cdf, abs=1e-12)
    assert est.pdf_stats[0] == pytest.approx(pdf, rel=1e-12)

    with pytest.raises(ValueError):
        estimate_density(test, frfs, GRID, cfg, metric="manhattan")


def test_density_ranks_the_bands_redrawn_resample():
    # A degenerate first draw is redrawn for the density exactly as for
    # the band, so the density ranks against the band's accepted resample.
    frfs = five_frfs()
    pirs = pir_matrix(frfs, GRID)
    test = FRF(frfs.values.mean(axis=0) + 0.3 - 0.1j)
    x_test = pir_from_frf(test, GRID).values
    cfg = BootstrapConfig(replications=1, seed=0)
    table = {(0,): [[2, 2, 2, 2, 2], [0, 0, 1, 2, 3]]}
    draws = bootstrap_deviation_stats(frfs, GRID, cfg, FixedStreams(table))
    est = estimate_density(test, frfs, GRID, cfg, streams=FixedStreams(table))

    np.testing.assert_array_equal(draws.indices[0], [0, 0, 1, 2, 3])
    mean = pirs[draws.indices[0]].mean(axis=0)
    es = sorted(float(np.sum((pirs[i] - mean) ** 2)) for i in draws.indices[0])
    et = float(np.sum((x_test - mean) ** 2))
    rank = min(sum(d <= et for d in es) + 1, 5)
    assert rank < 5  # the degenerate draw would rank the test at N
    assert est.cdf_stats[0] == rank / 5


def test_zero_spread_handling():
    rows = np.array([[1.0 + 0.0j], [1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]])
    frfs = FRFSet(rows)
    test = FRF(np.array([0.5 + 0.5j]))
    # Three coincident members: the resample has spread, but the test
    # ranks inside their run of tied distances, so its window is zero wide.
    coincident = [2, 2, 2, 3]
    fine = [0, 1, 2, 3]

    table = {(0,): [coincident], (1,): [fine], (2,): [fine], (3,): [fine], (4,): [fine]}
    cfg = BootstrapConfig(replications=5, seed=0)
    est = estimate_density(test, frfs, GRID, cfg, streams=FixedStreams(table))
    assert est.skipped == 1
    assert np.isnan(est.pdf_stats[0])
    assert np.isfinite(est.pdf_mean)

    table = {(0,): [coincident], (1,): [coincident], (2,): [fine], (3,): [fine], (4,): [fine]}
    with pytest.raises(ZeroSpread):
        estimate_density(test, frfs, GRID, cfg, streams=FixedStreams(table))


def test_all_identical_rows_raise_degenerate_spread():
    frfs = FRFSet(np.tile(np.array([1.0 + 2.0j]), (5, 1)))
    test = FRF(np.array([0.0 + 0.0j]))
    with pytest.raises(DegenerateSpread, match="kept zero spread"):
        estimate_density(test, frfs, GRID, BootstrapConfig(replications=10, seed=0))


def test_validation():
    frfs = five_frfs()
    test = FRF(frfs.values.mean(axis=0))
    cfg = BootstrapConfig(replications=5, seed=0)
    with pytest.raises(ValueError):
        estimate_density(test, frfs, GRID, cfg, numerator_mode="other")
    with pytest.raises(ValueError):
        estimate_density(test, FRFSet(frfs.values[:2]), GRID, cfg)


def per_row_density(test, frf_set, grid, picks, metric, numerator_mode):
    """``(cdf_stats, pdf_stats)`` as the per-replication loop computed them:
    each replication's mean by ``.mean(axis=0)`` and its distances sorted
    as they are made."""
    distance = {"squared": lambda sq: np.sum(sq, axis=-1),
                "max": lambda sq: np.sqrt(np.max(sq, axis=-1))}[metric]
    pirs, x_test = pir_matrix(frf_set, grid), pir_from_frf(test, grid).values
    B, n = len(picks), frf_set.n
    ds = max(1, n // 20)
    es, et = np.empty((B, n)), np.empty(B)
    for b, idx in enumerate(picks):
        mean = pirs[idx].mean(axis=0)
        es[b] = np.sort(distance(np.square(pirs[idx] - mean)))
        et[b] = distance(np.square(x_test - mean))
    rank = np.minimum(np.sum(es <= et[:, None], axis=1) + 1, n)
    low, high = rank - ds < 1, rank + ds > n
    i1 = np.where(low, 1, np.where(high, n - ds, rank - ds))
    i2 = np.where(low, 1 + ds, np.where(high, n, rank + ds))
    width = es[np.arange(B), i2 - 1] - es[np.arange(B), i1 - 1]
    numer = float(ds) if numerator_mode == "code-compatible" else (i2 - i1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return rank / n, np.where(width > 0.0, numer / (n * width), np.nan)


@pytest.mark.parametrize("replayed", [False, True], ids=["drawn", "replayed"])
@pytest.mark.parametrize("numerator_mode", ["code-compatible", "index-span"])
@pytest.mark.parametrize("metric", ["squared", "max"])
def test_density_matches_per_row_loop_bit_for_bit(metric, numerator_mode, replayed):
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(23)
    frfs = FRFSet(rng.standard_normal((40, grid.m)) + 1j * rng.standard_normal((40, grid.m)))
    test = FRF(frfs.values.mean(axis=0) + 0.2 - 0.1j)
    cfg = BootstrapConfig(replications=25, seed=0)
    picks = rng.integers(0, 40, size=(25, 40))
    # Replication 3's first draw repeats one row, has zero spread and is
    # redrawn: its accepted resample is the second canned draw.
    table = {(b,): [idx] for b, idx in enumerate(picks)}
    table[(3,)] = [np.full(40, 7), picks[3]]
    streams = FixedStreams(table)
    if replayed:
        bootstrap_deviation_stats(frfs, grid, cfg, streams)
    est = estimate_density(test, frfs, grid, cfg, metric=metric,
                           numerator_mode=numerator_mode, streams=streams)
    cdf, pdf = per_row_density(test, frfs, grid, picks, metric, numerator_mode)
    assert est.cdf_stats.tobytes() == cdf.tobytes()
    assert est.pdf_stats.tobytes() == pdf.tobytes()
