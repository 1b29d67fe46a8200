"""Tests for the distance CDF/PDF bootstrap."""

import warnings

import numpy as np
import pytest

from frfstats import (
    DegenerateSpread,
    SyntheticSpec,
    ZeroSpread,
    compare_unpaired,
    derive_grid,
    generate_synthetic,
    lowpass_mean_frf,
    minimal_prediction_band,
    prediction_band,
)
from frfstats import bands, density
from frfstats.bands import _resample_rows, bootstrap_deviation_stats
from frfstats.density import NUMERATOR_MODES, estimate_density
from frfstats.pir import FRF, FRFSet, pir_from_frf, pir_matrix
from frfstats.resampling import BootstrapConfig, IndexStreams

from support import EXPERIMENT_FREQS, CountingStreams, band_streams, drop_pool

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


def ranked_table(blocks):
    """``(es, below)`` of a ranking's blocks, stacked in replication order."""
    blocks = list(blocks)
    rows = np.concatenate([np.r_[rows] for rows, _, _ in blocks])
    assert np.array_equal(rows, np.arange(len(rows)))
    return (np.concatenate([es for _, es, _ in blocks]),
            np.concatenate([below for _, _, below in blocks]))


class CountingRows:
    """Stand-in for `bands._resample_rows` that counts the replicate means
    it forms, one per resample, whether it gets one or a block of them."""

    def __init__(self):
        self.means = 0

    def __call__(self, pirs, idx, out):
        self.means += len(np.atleast_2d(idx))
        return _resample_rows(pirs, idx, out)


INJECTED = [[0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [4, 4, 4, 2, 2]]


def test_injected_ranks_and_pdf_match_brute_force():
    frfs = five_frfs()
    pirs = pir_matrix(frfs, GRID)
    test = FRF(frfs.values.mean(axis=0) + 0.3 - 0.1j)
    x_test = pir_from_frf(test, GRID).values
    cfg = BootstrapConfig(replications=3, seed=0)
    est = estimate_density(test, frfs, GRID, cfg, streams=band_streams(*INJECTED))

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
    code = estimate_density(test, frfs, GRID, cfg, streams=band_streams(*INJECTED))
    span = estimate_density(
        test, frfs, GRID, cfg, numerator_mode="index-span", streams=band_streams(*INJECTED)
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


def test_pooled_overflowing_test_distance_ranks_last(monkeypatch, walks):
    # The Gram form's test distance overflows to inf (a test at 1e200), or
    # to NaN from inf - inf (at 1e308); either ranks last, on a pool
    # without one replicate mean and on a miss alike.
    frfs = forty_frfs()
    cfg = BootstrapConfig(replications=60, seed=1)
    far = FRF(frfs.values.mean(axis=0) + 50.0 + 50.0j)
    drop_pool()
    drawn = estimate_density(far, FRFSet(frfs.values), GRID, cfg)
    huge = [FRF(np.array([value + value * 1j])) for value in (1e200, 1e308)]
    missed = [estimate_density(test, FRFSet(frfs.values), GRID, cfg) for test in huge]
    assert walks == [60] * 3
    bootstrap_deviation_stats(frfs, GRID, cfg)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    pooled = [estimate_density(test, frfs, GRID, cfg) for test in huge]
    assert rows.means == 0
    for est in pooled + missed:
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


def scaled_answers(rate, n, factor):
    """Every bootstrap answer on one bench grid, all curves times `factor`."""
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    mean = lowpass_mean_frf(grid)
    spec = SyntheticSpec(mean, noise_std=0.1, n=n)
    controls, effect = generate_synthetic(spec, seed=5), generate_synthetic(spec, seed=6)
    test = generate_synthetic(SyntheticSpec(mean, noise_std=0.1, n=1), seed=7).values[0]
    cfg = BootstrapConfig(replications=200, nested_replications=20, seed=4)
    group, x = FRFSet(factor * controls.values), FRF(factor * test)
    minband = minimal_prediction_band(x, group, grid, cfg)
    comparison = compare_unpaired(group, FRFSet(factor * effect.values), grid, 0.95, cfg)
    return {
        "scale": prediction_band(group, grid, 0.95, cfg).scale,
        "alpha": minband.alpha, "C_p": minband.band.scale,
        "C_u": comparison.band.scale, "reject_null": comparison.reject_null,
        "sigma": comparison.sigma,
        **{metric: estimate_density(x, group, grid, cfg, metric=metric)
           for metric in ("squared", "max")},
    }


def test_scaling_preserves_ranks_and_rescales_pdf():
    # Scaling every curve by 2**k, or negating it, is exact in binary
    # floating point, so on both bench grids every bootstrap answer follows
    # it bit for bit: levels, ranks and decisions stay, sigma scales by
    # |2**k|, the squared PDF by 2**-2k and the "max" PDF by 2**-k.
    for rate, n in [(22.0, 20), (4.5, 200)]:
        base = scaled_answers(rate, n, 1.0)
        for factor in (2.0**-7, 2.0**5, -1.0, -8.0):
            k = np.log2(abs(factor))
            got = scaled_answers(rate, n, factor)
            for name in ("scale", "alpha", "C_p", "C_u", "reject_null"):
                assert got[name] == base[name], (n, factor, name)
            assert got["sigma"].tobytes() == (abs(factor) * base["sigma"]).tobytes()
            for metric, power in (("squared", -2 * k), ("max", -k)):
                assert got[metric].cdf_stats.tobytes() == base[metric].cdf_stats.tobytes()
                want = 2.0**power * base[metric].pdf_stats
                assert got[metric].pdf_stats.tobytes() == want.tobytes(), (n, factor, metric)


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

    est = estimate_density(test, frfs, GRID, cfg, metric="max", streams=band_streams(picks))
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
    redrawn = [[2, 2, 2, 2, 2], [0, 0, 1, 2, 3]]
    draws = bootstrap_deviation_stats(frfs, GRID, cfg, band_streams(redrawn))
    est = estimate_density(test, frfs, GRID, cfg, streams=band_streams(redrawn))

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

    cfg = BootstrapConfig(replications=5, seed=0)
    streams = band_streams(coincident, fine, fine, fine, fine)
    est = estimate_density(test, frfs, GRID, cfg, streams=streams)
    assert est.skipped == 1
    assert np.isnan(est.pdf_stats[0])
    assert np.isfinite(est.pdf_mean)

    streams = band_streams(coincident, coincident, fine, fine, fine)
    with pytest.raises(ZeroSpread):
        estimate_density(test, frfs, GRID, cfg, streams=streams)


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
    """``(cdf_stats, pdf_stats)`` as a per-replication loop computes them:
    each replication's mean from its pick counts, as the band walk forms
    it, and its distances sorted as they are made."""
    distance = {"squared": lambda sq: np.sum(sq, axis=-1),
                "max": lambda sq: np.sqrt(np.max(sq, axis=-1))}[metric]
    pirs, x_test = pir_matrix(frf_set, grid), pir_from_frf(test, grid).values
    B, n = len(picks), frf_set.n
    ds = max(1, n // 20)
    es, et = np.empty((B, n)), np.empty(B)
    for b, idx in enumerate(picks):
        mean = np.bincount(idx, minlength=n) @ pirs / n
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
    member = frfs.values[7] if test_at == "member" else frfs.values.mean(axis=0) + 0.2 - 0.1j
    test = FRF(member)
    picks = rng.integers(0, 40, size=(25, 40))
    # Replication 3's first draw repeats one row, has zero spread and is
    # redrawn: its accepted resample is the second canned draw.
    streams = band_streams(*picks[:3], [np.full(40, 7), picks[3]], *picks[4:])
    return grid, frfs, test, picks, streams


# The Gram form rounds its squared distances differently from the loop,
# by about (N + T) u |pc|^2 (u the unit roundoff, pc the centred PIRs).
# Ranks and zero-width windows stay the loop's; a PDF statistic divides by
# a window width, which can magnify that error: on both bench grids with
# B = 1000 it moved at most 1.3e-9 relative.
PDF_RTOL = 1e-8


def assert_matches_per_row_loop(est, cdf, pdf, metric="squared"):
    """The loop's ranks and skipped windows exactly; its PDF up to rounding
    for the squared metric, bit for bit for "max"."""
    assert est.cdf_stats.tobytes() == cdf.tobytes()
    np.testing.assert_array_equal(np.isnan(est.pdf_stats), np.isnan(pdf))
    if metric == "max":
        assert est.pdf_stats.tobytes() == pdf.tobytes()
    else:
        np.testing.assert_allclose(est.pdf_stats, pdf, rtol=PDF_RTOL)


@pytest.mark.parametrize("replayed", [False, True], ids=["drawn", "replayed"])
@pytest.mark.parametrize("numerator_mode", ["code-compatible", "index-span"])
@pytest.mark.parametrize("metric", ["squared", "max"])
def test_density_matches_per_row_loop_bit_for_bit(metric, numerator_mode, replayed, monkeypatch):
    # Ranks bit for bit for both metrics; the squared PDF up to PDF_RTOL.
    grid, frfs, test, picks, streams = canned_density_case("offset")
    cfg = BootstrapConfig(replications=25, seed=0)
    if replayed:
        bootstrap_deviation_stats(frfs, grid, cfg, streams)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    est = estimate_density(test, frfs, grid, cfg, metric=metric,
                           numerator_mode=numerator_mode, streams=streams)
    cdf, pdf = per_row_density(test, frfs, grid, picks, metric, numerator_mode)
    assert_matches_per_row_loop(est, cdf, pdf, metric)
    if replayed:
        # On the pool the squared metric forms no replicate mean at all.
        assert rows.means == (0 if metric == "squared" else 25)


@pytest.mark.parametrize("numerator_mode", ["code-compatible", "index-span"])
def test_pooled_member_ties_match_the_per_row_loop(numerator_mode, monkeypatch):
    # A test equal to set member 7 takes member 7's own distances, so it
    # ties with it exactly in every replication that resamples it, as in
    # the loop, and no replication forms a replicate mean.
    grid, frfs, test, picks, streams = canned_density_case("member")
    cfg = BootstrapConfig(replications=25, seed=0)
    bootstrap_deviation_stats(frfs, grid, cfg, streams)
    rows = CountingRows()
    monkeypatch.setattr(bands, "_resample_rows", rows)
    est = estimate_density(test, frfs, grid, cfg, numerator_mode=numerator_mode,
                           streams=streams)
    cdf, pdf = per_row_density(test, frfs, grid, picks, "squared", numerator_mode)
    assert_matches_per_row_loop(est, cdf, pdf)
    assert rows.means == 0


@pytest.mark.parametrize("rate, n", [(22.0, 20), (4.5, 200)], ids=["T440-N20", "T90-N200"])
def test_duplicated_members_match_the_per_row_loop(rate, n, monkeypatch, walks):
    # Every third member repeats the next one.  Equal members tie exactly
    # in the loop, and a test equal to one of them ties with both; on a
    # pool and on a miss the Gram form keeps every such tie, so member
    # ties, ranks and zero-width windows are the loop's.  Refusals are
    # lifted to compare every replication.
    monkeypatch.setattr(density, "MAX_SKIPPED_FRACTION", 1.0)
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    values = generate_synthetic(
        SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=n), seed=8).values.copy()
    values[0::3] = values[1::3][: len(values[0::3])]
    group = FRFSet(values)
    cfg = BootstrapConfig(replications=200, seed=9)
    picks = bootstrap_deviation_stats(group, grid, cfg).indices
    pirs = pir_matrix(group, grid)
    loop_ties = np.array([
        np.diff(np.sort(np.square(pirs[idx] - pirs[idx].mean(axis=0)).sum(axis=1))) == 0
        for idx in picks
    ])
    assert any(np.isin([0, 1], idx).all() for idx in picks)
    tests = (FRF(values[0]), FRF(values.mean(axis=0)))
    loops = [per_row_density(test, group, grid, picks, "squared", "code-compatible")
             for test in tests]
    for test, (cdf, pdf) in zip(tests, loops):
        es, _ = ranked_table(bands._ranked(test, group, grid, cfg, "squared", None))
        np.testing.assert_array_equal(np.diff(es) == 0, loop_ties)
        assert_matches_per_row_loop(estimate_density(test, group, grid, cfg), cdf, pdf)
    # And on a copy of the set with the pool dropped: a fresh draw each.
    drop_pool()
    for test, (cdf, pdf) in zip(tests, loops):
        assert_matches_per_row_loop(estimate_density(test, FRFSet(values), grid, cfg), cdf, pdf)
    assert walks == [200] * 3


def test_set_at_the_overflow_refusal_matches_the_per_row_loop():
    # Two clusters of 100 members near +-1 at every frequency, scaled by a
    # power of two to just inside the refusal of PIRs too large for finite
    # statistics, and a resample of 199 copies of one member and 1 of the
    # other cluster's.  Its mean lies far from the set mean, so the Gram
    # products (q_b = N^2 |m_b - mean|^2) would overflow unscaled; the
    # ranks and windows must still be the loop's.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(25)
    sign = np.repeat([1.0, -1.0], 100)[:, None]
    values = sign * (1 + 1j) + 0.1 * (rng.standard_normal((200, grid.m))
                                      + 1j * rng.standard_normal((200, grid.m)))
    limit = np.sqrt(np.finfo(float).max / (128 * grid.n_samples))
    values *= 2.0 ** np.floor(np.log2(limit / np.abs(pir_matrix(FRFSet(values), grid)).max()))
    frfs, test = FRFSet(values), FRF(values[:100].mean(axis=0))
    picks = [[0] * 199 + [100], rng.permutation(200)]
    cfg = BootstrapConfig(replications=2, seed=0)
    est = estimate_density(test, frfs, grid, cfg, streams=band_streams(*picks))
    cdf, pdf = per_row_density(test, frfs, grid, picks, "squared", "code-compatible")
    assert_matches_per_row_loop(est, cdf, pdf)


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
    assert rows.means == replays


def test_member_test_ties_with_its_member():
    # A test equal to member 3 has exactly member 3's squared distance to
    # the replicate mean in every replication that resamples member 3: it
    # ranks at the top of a run of at least that many equal distances.
    grid = derive_grid(EXPERIMENT_FREQS, 22.0)
    group = generate_synthetic(SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=20), seed=1)
    x = pir_from_frf(FRF(group.values[3]), grid).values
    cfg = BootstrapConfig(replications=300, seed=1)
    indices = bootstrap_deviation_stats(group, grid, cfg).indices
    pirs = pir_matrix(group, grid)
    es, below = ranked_table(bands._squared_ranked(pirs, pirs.mean(axis=0), indices, x))
    drew = 0
    for idx, row, k in zip(indices, es, below):
        if np.any(idx == 3):
            drew += 1
            run = row[k - np.count_nonzero(idx == 3):k]
            assert np.all(run == row[k - 1]) and (k == 20 or row[k] > row[k - 1])
    assert drew > 0


def test_rows_equal_up_to_signed_zeros_share_one_gram_row():
    # Rows 0 and 1 differ only in the sign of a zero, so they are equal rows
    # and must share one Gram row: the ranks and distances are those of the
    # set with that zero positive.
    rng = np.random.default_rng(1)
    pirs = 3.3 * rng.standard_normal((7, 5))
    pirs[:, 0] = 0.0
    pirs[1] = pirs[0]
    pirs[1, 0] = -0.0
    indices = rng.integers(0, 7, size=(40, 7))
    indices[:, :2] = [0, 1]
    x, mean = rng.standard_normal(5), np.zeros(5)
    signed = ranked_table(bands._squared_ranked(pirs, mean, indices, x))
    for a, b in zip(signed, ranked_table(bands._squared_ranked(pirs + 0.0, mean, indices, x))):
        np.testing.assert_array_equal(a, b)


def scored_tests(group, grid, seed):
    """A held-out draw, the set mean, a set member and 1.5x the draw."""
    mean = lowpass_mean_frf(grid)
    rng = np.random.default_rng([seed, 7])
    held = mean + 0.1 * (rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m))
    return [FRF(held), FRF(group.values.mean(axis=0)), FRF(group.values[3]), FRF(1.5 * held)]


def density_outcome(test, group, grid, cfg, metric, numerator_mode):
    """The density's statistics as bytes, or its refusal as type and message."""
    try:
        est = estimate_density(test, group, grid, cfg, metric, numerator_mode)
    except (ZeroSpread, DegenerateSpread) as err:
        return type(err).__name__, str(err)
    return est.cdf_stats.tobytes(), est.pdf_stats.tobytes()


@pytest.mark.parametrize("metric", ["squared", "max"])
@pytest.mark.parametrize("rate, n", [(22.0, 20), (4.5, 200)], ids=["T440-N20", "T90-N200"])
def test_pooled_density_matches_a_fresh_draw(rate, n, metric, walks):
    # Seeds 0-9 on the bench grids: a density on the pool (the squared
    # metric forms no replicate mean, "max" replays the recorded resamples)
    # and one on a copy of the set with the pool dropped (the replicate
    # loop) agree bit for bit, refusals included.
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    refused = 0
    for seed in range(10):
        group = generate_synthetic(
            SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=n), seed=10 * seed
        )
        cfg = BootstrapConfig(replications=100, seed=seed)
        walks.clear()
        bootstrap_deviation_stats(group, grid, cfg)
        cases = [(test, mode) for test in scored_tests(group, grid, seed)
                 for mode in NUMERATOR_MODES]
        pooled = [density_outcome(test, group, grid, cfg, metric, mode) for test, mode in cases]
        drop_pool()
        fresh = [density_outcome(test, FRFSet(group.values), grid, cfg, metric, mode)
                 for test, mode in cases]
        assert walks == [100] * (1 + len(cases))
        assert pooled == fresh, seed
        refused += sum(outcome[0] == "ZeroSpread" for outcome in pooled)
    # At N=20 (Ds = 1) one duplicate beside the rank empties the window, so
    # some of these densities refuse; at N=200 (Ds = 10) none does.
    assert (refused > 0) == (n == 20)
