"""Tests for the distance CDF/PDF bootstrap."""

import warnings

import numpy as np
import pytest

from frfstats import (
    DegenerateSpread,
    SyntheticSpec,
    ZeroSpread,
    derive_grid,
    generate_synthetic,
    lowpass_mean_frf,
)
from frfstats import bands
from frfstats.bands import _resample_rows, bootstrap_deviation_stats
from frfstats.density import NUMERATOR_MODES, estimate_density
from frfstats.pir import FRF, FRFSet, pir_from_frf, pir_matrix
from frfstats.resampling import BootstrapConfig, IndexStreams

from support import EXPERIMENT_FREQS, CountingStreams, FixedStreams

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


class CountingRows:
    """Stand-in for `bands._resample_rows` that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, pirs, idx):
        self.calls += 1
        return _resample_rows(pirs, idx)


INJECTED = [[0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [4, 4, 4, 2, 2]]


def injected_streams():
    return FixedStreams({b: [draw] for b, draw in enumerate(INJECTED)})


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


def test_pooled_overflowing_test_distance_ranks_last(monkeypatch):
    # On a pool the squared product distance overflows too; every
    # replication then takes the loop's distance, +inf, and ranks last.
    frfs = forty_frfs()
    cfg = BootstrapConfig(replications=60, seed=1)
    far = FRF(frfs.values.mean(axis=0) + 50.0 + 50.0j)
    huge = FRF(np.array([1e200 + 1e200j]))
    drawn = estimate_density(far, FRFSet(frfs.values), GRID, cfg)
    bootstrap_deviation_stats(frfs, GRID, cfg)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    est = estimate_density(huge, frfs, GRID, cfg)
    assert rows.calls == cfg.replications
    assert np.all(est.cdf_stats == 1.0)
    np.testing.assert_array_equal(est.pdf_stats, drawn.pdf_stats)


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


def test_tiny_scale_summaries_stay_finite():
    # PDF statistics of a set at about 1e-150 lie near 1e298, so their
    # squared deviations overflow unless the summaries scale them first.
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(46)
    values = rng.standard_normal((41, 2)) + 1j * rng.standard_normal((41, 2))
    cfg = BootstrapConfig(replications=200, seed=47)
    unit = estimate_density(FRF(values[40]), FRFSet(values[:40]), grid, cfg)
    kept = unit.pdf_stats[~np.isnan(unit.pdf_stats)]
    plain = [unit.cdf_stats.mean(), unit.cdf_stats.std(ddof=1), kept.mean(), kept.std(ddof=1)]
    assert [unit.cdf_mean, unit.cdf_std, unit.pdf_mean, unit.pdf_std] == plain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = estimate_density(FRF(1e-150 * values[40]), FRFSet(1e-150 * values[:40]), grid, cfg)
    np.testing.assert_array_equal(tiny.cdf_stats, unit.cdf_stats)
    assert np.isfinite(tiny.pdf_std)
    assert tiny.pdf_std == pytest.approx(unit.pdf_std * 1e300, rel=1e-12)


def test_max_metric():
    frfs = five_frfs()
    pirs = pir_matrix(frfs, GRID)
    test = FRF(frfs.values.mean(axis=0) + 0.2 + 0.1j)
    x_test = pir_from_frf(test, GRID).values
    cfg = BootstrapConfig(replications=1, seed=0)
    picks = [1, 3, 3, 0, 2]

    streams = FixedStreams({0: [picks]})
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
    table = {0: [[2, 2, 2, 2, 2], [0, 0, 1, 2, 3]]}
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

    table = {0: [coincident], 1: [fine], 2: [fine], 3: [fine], 4: [fine]}
    cfg = BootstrapConfig(replications=5, seed=0)
    est = estimate_density(test, frfs, GRID, cfg, streams=FixedStreams(table))
    assert est.skipped == 1
    assert np.isnan(est.pdf_stats[0])
    assert np.isfinite(est.pdf_mean)

    table = {0: [coincident], 1: [coincident], 2: [fine], 3: [fine], 4: [fine]}
    with pytest.raises(ZeroSpread):
        estimate_density(test, frfs, GRID, cfg, streams=FixedStreams(table))


def test_all_identical_rows_raise_degenerate_spread():
    # With no pool to read, the set is refused as the bands refuse it,
    # before any stream is built.
    frfs = FRFSet(np.tile(np.array([1.0 + 2.0j]), (5, 1)))
    test = FRF(np.array([0.0 + 0.0j]))
    cfg = BootstrapConfig(replications=10, seed=0)
    for metric in ("squared", "max"):
        streams = CountingStreams(0)
        with pytest.raises(DegenerateSpread, match="^the sample set has zero spread"):
            estimate_density(test, frfs, GRID, cfg, metric=metric, streams=streams)
        assert streams.built == 0


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


def canned_density_case(test_at):
    """A 40-member set with 25 canned resamples, one of them redrawn, and a
    test: the set mean shifted, or set member 7."""
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(23)
    frfs = FRFSet(rng.standard_normal((40, grid.m)) + 1j * rng.standard_normal((40, grid.m)))
    test = frfs.sample(7) if test_at == "member" else FRF(frfs.values.mean(axis=0) + 0.2 - 0.1j)
    picks = rng.integers(0, 40, size=(25, 40))
    # Replication 3's first draw repeats one row, has zero spread and is
    # redrawn: its accepted resample is the second canned draw.
    table = {b: [idx] for b, idx in enumerate(picks)}
    table[3] = [np.full(40, 7), picks[3]]
    return grid, frfs, test, picks, FixedStreams(table)


@pytest.mark.parametrize("replayed", [False, True], ids=["drawn", "replayed"])
@pytest.mark.parametrize("numerator_mode", ["code-compatible", "index-span"])
@pytest.mark.parametrize("metric", ["squared", "max"])
def test_density_matches_per_row_loop_bit_for_bit(metric, numerator_mode, replayed, monkeypatch):
    grid, frfs, test, picks, streams = canned_density_case("offset")
    cfg = BootstrapConfig(replications=25, seed=0)
    if replayed:
        bootstrap_deviation_stats(frfs, grid, cfg, streams)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    est = estimate_density(test, frfs, grid, cfg, metric=metric,
                           numerator_mode=numerator_mode, streams=streams)
    cdf, pdf = per_row_density(test, frfs, grid, picks, metric, numerator_mode)
    assert est.cdf_stats.tobytes() == cdf.tobytes()
    assert est.pdf_stats.tobytes() == pdf.tobytes()
    if replayed:
        # On the pool the squared metric forms no replicate mean at all.
        assert rows.calls == (0 if metric == "squared" else 25)


@pytest.mark.parametrize("numerator_mode", ["code-compatible", "index-span"])
def test_pooled_member_ties_are_recomputed_bit_for_bit(numerator_mode, monkeypatch):
    # A set member's distance ties exactly with its own member distance in
    # every replication that resamples it; only those recompute the test's
    # distance the loop's way.
    grid, frfs, test, picks, streams = canned_density_case("member")
    cfg = BootstrapConfig(replications=25, seed=0)
    bootstrap_deviation_stats(frfs, grid, cfg, streams)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    est = estimate_density(test, frfs, grid, cfg, numerator_mode=numerator_mode,
                           streams=streams)
    cdf, pdf = per_row_density(test, frfs, grid, picks, "squared", numerator_mode)
    assert est.cdf_stats.tobytes() == cdf.tobytes()
    assert est.pdf_stats.tobytes() == pdf.tobytes()
    assert rows.calls == sum(7 in idx for idx in picks) > 0


@pytest.mark.parametrize("metric, replays", [("squared", 0), ("max", 50)])
def test_pooled_density_replays_only_the_max_metric(metric, replays, monkeypatch):
    # On a pool, a held-out test's squared distance is ranked without one
    # replicate mean; the "max" metric has no such identity and replays.
    grid = derive_grid(EXPERIMENT_FREQS, 22.0)
    rng = np.random.default_rng(24)
    values = rng.standard_normal((21, grid.m)) + 1j * rng.standard_normal((21, grid.m))
    frfs, test = FRFSet(values[:20]), FRF(values[20])
    cfg = BootstrapConfig(replications=50, seed=3)
    bootstrap_deviation_stats(frfs, grid, cfg)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    estimate_density(test, frfs, grid, cfg, metric=metric)
    assert rows.calls == replays


def test_member_test_ties_with_its_member():
    # A test equal to member 3 has exactly member 3's squared distance to
    # the replicate mean in every replication that resamples member 3.
    grid = derive_grid(EXPERIMENT_FREQS, 22.0)
    group = generate_synthetic(SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=20), seed=1)
    x = pir_from_frf(group.sample(3), grid).values
    distance = bands._METRICS["squared"]
    cfg = BootstrapConfig(replications=300, seed=1)
    drew = 0
    for idx, mean, _, sq in bands._replicates(pir_matrix(group, grid), cfg, None):
        if np.any(idx == 3):
            drew += 1
            assert np.all(distance(sq[idx == 3]) == distance(np.square(x - mean)))
    assert drew > 0


def scored_tests(group, grid, seed):
    """A held-out draw, the set mean, a set member and 1.5x the draw."""
    mean = lowpass_mean_frf(grid)
    rng = np.random.default_rng([seed, 7])
    held = mean + 0.1 * (rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m))
    return [FRF(held), FRF(group.values.mean(axis=0)), group.sample(3), FRF(1.5 * held)]


def density_outcome(test, group, grid, cfg, metric, numerator_mode):
    """The density's statistics as bytes, or its refusal as type and message."""
    try:
        est = estimate_density(test, group, grid, cfg, metric, numerator_mode)
    except (ZeroSpread, DegenerateSpread) as err:
        return type(err).__name__, str(err)
    return est.cdf_stats.tobytes(), est.pdf_stats.tobytes()


@pytest.mark.parametrize("metric", ["squared", "max"])
@pytest.mark.parametrize("rate, n", [(22.0, 20), (4.5, 200)], ids=["T440-N20", "T90-N200"])
def test_pooled_density_matches_a_fresh_draw(rate, n, metric):
    # Seeds 0-9 on the bench grids: a density on the pool (the squared
    # metric forms no replicate mean, "max" replays the recorded resamples)
    # and one on a copy of the set (the replicate loop) agree bit for bit,
    # refusals included.
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    refused = 0
    for seed in range(10):
        group = generate_synthetic(
            SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=n), seed=10 * seed
        )
        cfg = BootstrapConfig(replications=100, seed=seed)
        bootstrap_deviation_stats(group, grid, cfg)
        for test in scored_tests(group, grid, seed):
            for mode in NUMERATOR_MODES:
                pooled = density_outcome(test, group, grid, cfg, metric, mode)
                fresh = density_outcome(test, FRFSet(group.values), grid, cfg, metric, mode)
                assert pooled == fresh, (seed, mode)
                refused += pooled[0] == "ZeroSpread"
    # At N=20 (Ds = 1) one duplicate beside the rank empties the window, so
    # some of these densities refuse; at N=200 (Ds = 10) none does.
    assert (refused > 0) == (n == 20)
