"""Tests for prediction bands and the minimal band."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from frfstats import (
    BandContainment,
    DegenerateSpread,
    FrequencyGrid,
    GridMismatch,
    SyntheticSpec,
    ZeroSpread,
    compare_unpaired,
    derive_grid,
    estimate_density,
    generate_synthetic,
    lowpass_mean_frf,
)
from frfstats import bands, pir, resampling
from frfstats.bands import (
    Band,
    _replicates,
    bootstrap_deviation_stats,
    minimal_prediction_band,
    prediction_band,
)
from frfstats.pir import FRF, FRFSet, pir_from_frf, pir_matrix, pir_stats
from frfstats.resampling import (
    MAX_REDRAWS,
    BootstrapConfig,
    IndexStreams,
    alpha_at,
)

from support import EXPERIMENT_FREQS, CountingStreams, band_streams, drop_pool


def small_set(seed=1, n=8, m=2, spread=0.5):
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    noise = spread * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return FRFSet(center[None, :] + noise)


def test_band_geometry():
    band = Band(mean=np.array([1.0, -2.0]), std=np.array([0.5, 1.0]), scale=2.0, alpha=0.9)
    np.testing.assert_allclose(band.upper, [2.0, 0.0])
    np.testing.assert_allclose(band.lower, [0.0, -4.0])
    assert band.contains([1.5, -3.0])
    assert not band.contains([2.5, -3.0])
    for curve in (1.5, [1.5], [1.5, -3.0, 0.0], [[1.5, -3.0]]):
        with pytest.raises(ValueError, match="is not the band's"):
            band.contains(curve)
    with pytest.raises(ValueError):
        Band(mean=np.zeros(2), std=np.ones(2), scale=-1.0, alpha=0.5)


def test_injected_indices_match_loop_arithmetic():
    grid = derive_grid([1.0])
    frfs = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    picks = [[0, 1, 1], [2, 0, 2]]
    cfg = BootstrapConfig(replications=2, seed=0)
    draws = bootstrap_deviation_stats(frfs, grid, cfg, band_streams(*picks))

    np.testing.assert_array_equal(draws.indices, picks)
    pirs = pir_matrix(frfs, grid)
    # The record keeps no replicate curves; the loop that computes them
    # does, a block of replications at a time.
    recorded = np.empty_like(draws.indices)
    blocks = list(_replicates(pirs, cfg, band_streams(*picks), recorded))
    np.testing.assert_array_equal(recorded, picks)
    rep_means = np.concatenate([means for _, means, _, _ in blocks])
    rep_vars = np.concatenate([var for _, _, var, _ in blocks])
    for b, (drawn, rep_mean, rep_var) in enumerate(zip(picks, rep_means, rep_vars, strict=True)):
        rows = [pirs[i] for i in drawn]
        mean = sum(rows) / 3.0
        var = sum((r - mean) ** 2 for r in rows) / 2.0
        std = np.sqrt(var)
        np.testing.assert_allclose(rep_mean, mean, atol=1e-12)
        np.testing.assert_allclose(rep_var, var, atol=1e-12)
        for i in range(3):
            expected = max(abs(pirs[i] - mean) / std)
            assert draws.stats[b, i] == pytest.approx(expected, abs=1e-12)


def test_statistics_past_the_squared_range_stay_finite():
    # Members 0 and 1 differ by 2**-8 relative and member 2 is 1e152 times
    # member 0, inside the overflow refusal.  Resample [0, 1, 1] scores
    # member 2 at |d| / s of about 4.4e154, whose square overflows: the pool
    # must hold |d| / s, as a loop over the resample's rows computes it.
    grid = derive_grid([1.0])
    z = np.array([1.0 + 0.5j])
    frfs = FRFSet(np.array([z, z * (1 + 2**-8), z * 1e152]))
    picks = [[0, 1, 1], [0, 1, 2]]
    cfg = BootstrapConfig(replications=2, seed=0)
    draws = bootstrap_deviation_stats(frfs, grid, cfg, band_streams(*picks))
    pirs = pir_matrix(frfs, grid)
    assert np.sqrt(np.finfo(float).max) < draws.stats[0, 2] < np.inf
    for drawn, stats in zip(picks, draws.stats, strict=True):
        rows = pirs[drawn]
        loop = np.max(np.abs(pirs - rows.mean(axis=0)) / rows.std(axis=0, ddof=1), axis=1)
        np.testing.assert_allclose(stats, loop, rtol=1e-14)
    band = prediction_band(frfs, grid, 1.0, cfg, band_streams(*picks))
    assert band.scale == draws.stats.max()


def test_full_alpha_band_covers_every_original():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=2, n=5)
    cfg = BootstrapConfig(replications=50, seed=11)
    band = prediction_band(frfs, grid, 1.0, cfg)
    draws = bootstrap_deviation_stats(frfs, grid, cfg, IndexStreams(cfg.seed))
    assert band.scale == pytest.approx(draws.stats.max(), rel=1e-12)
    pirs = pir_matrix(frfs, grid)
    for row in pirs:
        assert band.contains(row)


def test_bands_widen_with_alpha():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=3)
    cfg = BootstrapConfig(replications=100, seed=5)
    narrow = prediction_band(frfs, grid, 0.5, cfg)
    wide = prediction_band(frfs, grid, 0.9, cfg)
    assert wide.scale >= narrow.scale
    assert np.all(wide.upper >= narrow.upper)
    assert np.all(wide.lower <= narrow.lower)
    np.testing.assert_allclose(wide.mean, narrow.mean)


def test_minimal_band_zero_deviation():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=4)
    test = FRF(frfs.values.mean(axis=0))
    cfg = BootstrapConfig(replications=50, seed=6)
    result = minimal_prediction_band(test, frfs, grid, cfg)
    assert result.alpha == 0.0
    assert result.band.scale == pytest.approx(0.0, abs=1e-12)


def test_minimal_band_far_test_clamps_to_one():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=7)
    far = FRF(frfs.values.mean(axis=0) + 1e6 * (1.0 + 1.0j))
    cfg = BootstrapConfig(replications=50, seed=8)
    result = minimal_prediction_band(far, frfs, grid, cfg)
    assert result.alpha == 1.0


def test_minimal_band_touches_test_sample():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=9)
    mean, std = pir_stats(frfs, grid)
    test = FRF(frfs.values.mean(axis=0) + np.array([0.4 - 0.2j, 0.1 + 0.3j]))
    cfg = BootstrapConfig(replications=80, seed=10)
    result = minimal_prediction_band(test, frfs, grid, cfg)
    x_test = pir_from_frf(test, grid).values
    reached = np.max(np.abs(x_test - mean) / std)
    assert reached > 0.1
    assert result.band.scale == pytest.approx(reached, abs=1e-12)
    assert result.band.contains(x_test)


@pytest.mark.parametrize(
    "freqs, rate", [([0.3, 0.5], None), (EXPERIMENT_FREQS, 22.0)], ids=["2freq", "22hz"]
)
def test_minimal_band_contains_test_over_seeded_sweep(freqs, rate):
    # At the raw deviation, rounding in mean +/- scale*std leaves about one
    # test PIR in ten a few ulp outside its band; the returned band must
    # hold it anyway, at the first ulp step that does.
    grid = derive_grid(freqs, rate)
    rng = np.random.default_rng(17)
    cfg = BootstrapConfig(replications=10, seed=18)
    for _ in range(200):
        frfs = small_set(seed=int(rng.integers(2**32)), n=20, m=grid.m)
        test = FRF(frfs.values[0] + 0.3 * (rng.standard_normal(grid.m)
                                           + 1j * rng.standard_normal(grid.m)))
        mean, std = pir_stats(frfs, grid)
        x_test = pir_from_frf(test, grid).values
        reached = float(np.max(np.abs(x_test - mean) / std))
        result = minimal_prediction_band(test, frfs, grid, cfg)
        scale = result.band.scale
        assert result.band.contains(x_test)
        assert reached <= scale <= reached + 4 * np.spacing(reached)
        if scale > reached:
            tighter = Band(mean, std, float(np.nextafter(scale, 0.0)), 0.0)
            assert not tighter.contains(x_test)
        assert result.alpha == alpha_at(result.stat_ecdf, scale)


def test_minimal_band_overflowing_deviation_refused():
    # The test PIR is finite but its standardized deviation overflows, so no
    # finite scale can hold it: the search stops instead of looping.
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=7)
    huge = FRF(np.array([1.7e308, 0.0]))
    cfg = BootstrapConfig(replications=10, seed=8)
    with pytest.raises(BandContainment):
        minimal_prediction_band(huge, frfs, grid, cfg)


def test_minimal_band_alpha_monotone_in_deviation():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=12)
    mean_frf = frfs.values.mean(axis=0)
    delta = np.array([0.5 + 0.2j, -0.3 + 0.4j])
    cfg = BootstrapConfig(replications=100, seed=13)
    alphas = []
    for c in (0.2, 0.8, 2.0):
        test = FRF(mean_frf + c * delta)
        alphas.append(minimal_prediction_band(test, frfs, grid, cfg).alpha)
    assert alphas == sorted(alphas)
    assert alphas[0] < alphas[-1]


def test_degenerate_set_rejected():
    grid = derive_grid([0.3, 0.5])
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    frfs = FRFSet(np.tile(row, (4, 1)))
    cfg = BootstrapConfig(replications=10, seed=0)
    with pytest.raises(DegenerateSpread):
        prediction_band(frfs, grid, 0.9, cfg)
    # The record's own reader refuses the set too, before any stream.
    streams = CountingStreams(0)
    with pytest.raises(DegenerateSpread, match="^the sample set has zero spread"):
        bootstrap_deviation_stats(frfs, grid, cfg, streams)
    assert streams.built == 0


def test_degenerate_replication_is_redrawn():
    grid = derive_grid([1.0])
    frfs = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    cfg = BootstrapConfig(replications=1, seed=0)
    streams = band_streams([[1, 1, 1], [0, 1, 2]])
    draws = bootstrap_deviation_stats(frfs, grid, cfg, streams)
    np.testing.assert_array_equal(draws.indices, [[0, 1, 2]])

    exhausted = band_streams([[1, 1, 1]] * (MAX_REDRAWS + 1))
    message = f"a bootstrap replication kept zero spread after {MAX_REDRAWS} redraws"
    with pytest.raises(DegenerateSpread, match=message):
        bootstrap_deviation_stats(frfs, grid, cfg, exhausted)


@pytest.mark.parametrize("n, dtype", [(3, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_record_indices_take_the_narrowest_unsigned_type(n, dtype):
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(n=n)
    cfg = BootstrapConfig(replications=4, nested_replications=3, seed=0)
    draws = bootstrap_deviation_stats(frfs, grid, cfg)
    assert draws.indices.dtype == dtype
    drawn = np.empty_like(draws.indices)
    for _ in _replicates(pir_matrix(frfs, grid), cfg, None, drawn):
        pass
    np.testing.assert_array_equal(draws.indices, drawn)
    # The comparison's record follows the same rule, group by group.
    other = small_set(seed=2, n=5)
    compared = compare_unpaired(frfs, other, grid, 0.9, cfg).draws
    assert compared.outer_indices1.dtype == compared.sigma_indices1.dtype == dtype
    assert compared.outer_indices2.dtype == compared.sigma_indices2.dtype == np.uint8


def test_band_miss_transforms_the_set_once(monkeypatch):
    calls = []

    def counted(frf_set, grid):
        calls.append(frf_set)
        return pir_matrix(frf_set, grid)

    # Counted in both modules, so a transform inside `pir_stats` counts too.
    monkeypatch.setattr(bands, "pir_matrix", counted)
    monkeypatch.setattr(pir, "pir_matrix", counted)
    grid, group, test = scored_group(4.5, 20, 4)
    cfg = BootstrapConfig(replications=20, seed=4)
    prediction_band(group, grid, 0.9, cfg)
    assert calls == [group]
    drop_pool()
    fresh = FRFSet(group.values)
    minimal_prediction_band(test, fresh, grid, cfg)
    assert calls == [group, fresh]
    # A hit transforms the set once too: its PIRs are the pool's key.
    prediction_band(group, grid, 0.5, cfg)
    assert calls == [group, fresh, group]


def test_too_few_samples_rejected():
    grid = derive_grid([0.3, 0.5])
    frfs = FRFSet(np.ones((2, 2)) + 1j * np.eye(2))
    with pytest.raises(ValueError):
        bootstrap_deviation_stats(frfs, grid, BootstrapConfig(seed=0))
    with pytest.raises(ValueError):
        prediction_band(small_set(), grid, 1.5, BootstrapConfig(seed=0))


def test_too_few_samples_refused_in_one_place():
    # Every band bootstrap reader refuses a two-sample set with the same
    # message, before any stream is built.
    grid = derive_grid([0.3, 0.5])
    frfs = FRFSet(small_set().values[:2])
    test = FRF(small_set().values[0])
    cfg = BootstrapConfig(replications=5, seed=0)
    streams = CountingStreams(0)
    calls = [
        lambda: bootstrap_deviation_stats(frfs, grid, cfg, streams),
        lambda: prediction_band(frfs, grid, 0.9, cfg, streams),
        lambda: minimal_prediction_band(test, frfs, grid, cfg, streams),
        lambda: estimate_density(test, frfs, grid, cfg, streams=streams),
        lambda: estimate_density(test, frfs, grid, cfg, metric="max", streams=streams),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^need at least three samples to bootstrap$"):
            call()
    assert streams.built == 0


def test_pool_holds_one_key():
    grid, group, _ = scored_group(4.5, 20, 0)
    cfg = BootstrapConfig(replications=10, seed=3)
    streams = CountingStreams(3)
    bootstrap_deviation_stats(group, grid, cfg, streams)
    assert bands._LAST.key == (streams, 10, 3)
    assert bands._LAST.pirs.tobytes() == pir_matrix(group, grid).tobytes()
    bootstrap_deviation_stats(group, grid, cfg)
    assert bands._LAST.key == (None, 10, 3)
    # The PIRs are the rest of the key; the pool keeps no set or grid.
    names = [f.name for f in dataclasses.fields(bands._Pool)]
    assert names == ["key", "pirs", "mean", "std", "draws", "stat_ecdf"]


def test_fresh_draw_coverage_sane():
    # Light calibration check; the acceptance suite runs the full version.
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(16)
    center = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    hits = trials = 0
    for trial in range(40):
        noise = 0.4 * (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2)))
        frfs = FRFSet(center[None, :] + noise)
        cfg = BootstrapConfig(replications=150, seed=trial)
        band = prediction_band(frfs, grid, 0.95, cfg)
        for _ in range(5):
            fresh = center + 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            x = pir_from_frf(FRF(fresh), grid).values
            hits += band.contains(x)
            trials += 1
    assert 0.80 <= hits / trials <= 1.0


# Reuse of the last band bootstrap: a minimal band, a density and a band
# on one set, grid, config and streams draw the B resamples once.


def scored_group(rate, n, seed):
    """A group on the experiment grid and a test response 1.5x a fresh draw."""
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    mean = lowpass_mean_frf(grid)
    group = generate_synthetic(SyntheticSpec(mean, noise_std=0.1, n=n), seed=100 + seed)
    draw = generate_synthetic(SyntheticSpec(mean, noise_std=0.1, n=1), seed=300 + seed)
    return grid, group, FRF(1.5 * draw.values[0])


def score_calls(test, group_for, grid, cfg, streams):
    """Minimal band, the four densities and a band, each on ``group_for()``;
    the arrays they return, a refused density standing as its message."""
    minimal = minimal_prediction_band(test, group_for(), grid, cfg, streams)
    out = [minimal.band.upper, minimal.band.lower, minimal.alpha, minimal.stat_ecdf.pool]
    for metric in ("squared", "max"):
        for mode in ("code-compatible", "index-span"):
            try:
                d = estimate_density(test, group_for(), grid, cfg, metric, mode, streams)
                out += [d.cdf_stats, d.pdf_stats]
            except ZeroSpread as err:
                out.append(str(err))
    band = prediction_band(group_for(), grid, 0.95, cfg, streams)
    return out + [band.upper, band.lower, band.scale]


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
@pytest.mark.parametrize("rate, n", [(22.0, 20), (4.5, 200)], ids=["T440-N20", "T90-N200"])
def test_reused_bootstrap_matches_fresh_sets(rate, n, explicit, walks):
    # One set object scores with one band bootstrap; every call on a fresh
    # copy of the set, its pool dropped, draws its own.  The numbers must
    # not tell them apart.
    for seed in range(10):
        grid, group, test = scored_group(rate, n, seed)
        cfg = BootstrapConfig(replications=100, seed=seed)
        streams = IndexStreams(seed) if explicit else None
        walks.clear()
        reused = score_calls(test, lambda: group, grid, cfg, streams)
        draws = bootstrap_deviation_stats(group, grid, cfg, streams)
        assert bootstrap_deviation_stats(group, grid, cfg, streams) is draws
        assert walks == [100]
        # The minimal band's ECDF holds exactly the record's statistics, sorted.
        assert np.array_equal(reused[3], np.sort(draws.stats, axis=None))

        def fresh_copy():
            drop_pool()
            return FRFSet(group.values)

        fresh = score_calls(test, fresh_copy, grid, cfg, streams)
        assert walks == [100] * 7  # the minimal band, four densities and the band
        for a, b in zip(reused, fresh, strict=True):
            np.testing.assert_array_equal(a, b)


def block_outcomes(test, values, grid, cfg, streams_for, walks):
    """The record of a fresh set, its minimal band's alpha, and both
    densities on its pool and then on a copy of the set with the pool
    dropped (a miss), which reads ``streams_for()``; a refused density
    stands as its message.  Three band walks start: the record's and the
    two misses'."""
    drop_pool()
    walks.clear()
    group, streams = FRFSet(values), streams_for()
    draws = bootstrap_deviation_stats(group, grid, cfg, streams)
    out = [draws.indices, draws.stats,
           minimal_prediction_band(test, group, grid, cfg, streams).alpha]
    for pooled in (True, False):
        if not pooled:
            drop_pool()
        for metric in ("squared", "max"):
            frf_set, streams_ = (group, streams) if pooled else (FRFSet(values), streams_for())
            try:
                d = estimate_density(test, frf_set, grid, cfg, metric, streams=streams_)
                out += [d.cdf_stats, d.pdf_stats]
            except ZeroSpread as err:
                out.append(str(err))
    assert walks == [cfg.replications] * 3
    return out


def test_results_do_not_depend_on_the_block_size(monkeypatch, walks):
    # Blocks of 1, 3 and all B replications give the same record, minimal
    # band and densities, on a pool and on a miss, bit for bit; so does a
    # canned table whose replications 1 and 3 are redrawn inside a block.
    grid, group, scaled = scored_group(22.0, 20, 4)
    small = small_set(n=5)
    table = [[0, 1, 2, 3, 4], [[2, 2, 2, 2, 2], [0, 0, 1, 3, 4]], [4, 3, 1, 1, 0],
             [[1, 1, 1, 1, 1], [3, 3, 3, 3, 3], [2, 4, 0, 1, 3]], [0, 2, 2, 4, 1]]
    cases = [
        (grid, group, FRF(scaled.values / 1.5), BootstrapConfig(replications=50, seed=4),
         lambda: None),
        (derive_grid([0.3, 0.5]), small, FRF(small.values.mean(axis=0) + 0.2),
         BootstrapConfig(replications=len(table), seed=0), lambda: band_streams(*table)),
    ]
    for grid, group, test, cfg, streams_for in cases:
        rows = pir_matrix(group, grid)
        results = []
        for k in (1, 3, cfg.replications):
            monkeypatch.setattr(resampling, "_BATCH_BYTES", k * rows.nbytes)
            assert len(next(bands._blocks(rows, cfg.replications))[1]) == k
            results.append(block_outcomes(test, group.values, grid, cfg, streams_for, walks))
        assert not any(isinstance(a, str) for a in results[0])  # no density refused
        for other in results[1:]:
            for a, b in zip(results[0], other, strict=True):
                np.testing.assert_array_equal(a, b)
    # The canned table's accepted resamples, its degenerate draws redrawn.
    np.testing.assert_array_equal(results[0][0], [
        [0, 1, 2, 3, 4], [0, 0, 1, 3, 4], [4, 3, 1, 1, 0], [2, 4, 0, 1, 3], [0, 2, 2, 4, 1]])


def test_blocks_tile_the_walk_in_one_buffer(monkeypatch):
    # k = 3 replications a block; every count is cut into consecutive slices
    # of at most k rows, each lent a slice of its length of one buffer.
    k, pirs = 3, np.zeros((4, 5))
    monkeypatch.setattr(resampling, "_BATCH_BYTES", k * pirs.nbytes)
    for count in (1, k - 1, k, k + 1, 3 * k):
        blocks = list(bands._blocks(pirs, count))
        starts = [rows.start for rows, _ in blocks]
        assert starts == list(range(0, count, k))
        assert [rows.stop for rows, _ in blocks] == starts[1:] + [count]
        for rows, out in blocks:
            assert out.shape == (rows.stop - rows.start, *pirs.shape)
        assert all(np.shares_memory(out, blocks[0][1]) for _, out in blocks)


def test_any_key_change_rebuilds(monkeypatch):
    grid, group, test = scored_group(4.5, 20, 0)
    cfg = BootstrapConfig(replications=30, seed=5)
    streams = CountingStreams(5)
    draws = bootstrap_deviation_stats(group, grid, cfg, streams)
    # The pool keys on values: an equal config, a copy of the set and a grid
    # built again read it, and build no stream.
    hits = {
        "config": (group, grid, BootstrapConfig(replications=30, seed=5)),
        "set": (FRFSet(group.values), grid, cfg),
        "grid": (group, FrequencyGrid(EXPERIMENT_FREQS, 4.5), cfg),
    }
    for name, (group_, grid_, cfg_) in hits.items():
        before = streams.built
        assert bootstrap_deviation_stats(group_, grid_, cfg_, streams) is draws, name
        estimate_density(test, group_, grid_, cfg_, streams=streams)
        assert streams.built == before, name
    # One ulp of one FRF value moves the PIR bits, so it draws again.
    nudged = group.values.copy()
    nudged[3, 2] = complex(np.nextafter(nudged[3, 2].real, np.inf), nudged[3, 2].imag)
    assert not np.array_equal(pir_matrix(FRFSet(nudged), grid), pir_matrix(group, grid))
    variants = {
        "ulp": (FRFSet(nudged), grid, cfg),
        "seed": (group, grid, BootstrapConfig(replications=30, seed=6)),
        "replications": (group, grid, BootstrapConfig(replications=31, seed=5)),
    }
    for name, (group_, grid_, cfg_) in variants.items():
        bootstrap_deviation_stats(group, grid, cfg, streams)  # recorded again
        for call in (
            lambda: estimate_density(test, group_, grid_, cfg_, streams=streams),
            lambda: bootstrap_deviation_stats(group_, grid_, cfg_, streams),
        ):
            before = streams.built
            call()
            assert streams.built - before == cfg_.replications, name
    # Another streams object, or the default in place of an explicit one.
    draws = bootstrap_deviation_stats(group, grid, cfg, streams)
    other = CountingStreams(5)
    estimate_density(test, group, grid, cfg, streams=other)
    assert other.built == cfg.replications
    assert bootstrap_deviation_stats(group, grid, cfg) is not draws
    rebuilt = bootstrap_deviation_stats(group, grid, cfg, streams)
    assert rebuilt is not draws
    np.testing.assert_array_equal(rebuilt.indices, draws.indices)
    # PIRs compare as bits: a zero of the other sign is another key.
    zeroed = pir_matrix(group, grid).copy()
    zeroed[0, 0] = 0.0
    monkeypatch.setattr(bands, "pir_matrix", lambda frf_set, grid: zeroed.copy())
    draws = bootstrap_deviation_stats(group, grid, cfg, streams)
    assert bootstrap_deviation_stats(group, grid, cfg, streams) is draws
    zeroed[0, 0] = -0.0
    before = streams.built
    assert bootstrap_deviation_stats(group, grid, cfg, streams) is not draws
    assert streams.built - before == cfg.replications


@pytest.mark.parametrize("change", [{"bins": 500}, {"nested_replications": 7}],
                         ids=["bins", "nested_replications"])
def test_fields_no_draw_reads_reuse_the_record(change):
    # Band calls whose configs differ only in a field the draws never read
    # share one pool: B streams are built, not B per call.
    grid, group, test = scored_group(4.5, 20, 0)
    cfg = BootstrapConfig(replications=30, seed=5)
    other = dataclasses.replace(cfg, **change)
    streams = CountingStreams(5)
    draws = bootstrap_deviation_stats(group, grid, cfg, streams)
    prediction_band(group, grid, 0.9, other, streams)
    minimal_prediction_band(test, group, grid, other, streams)
    estimate_density(test, group, grid, other, streams=streams)
    assert bootstrap_deviation_stats(group, grid, other, streams) is draws
    assert streams.built == cfg.replications


def test_one_pool_is_held_until_a_miss_replaces_it(monkeypatch):
    grid, group, _ = scored_group(4.5, 20, 1)
    cfg = BootstrapConfig(replications=20, seed=1)
    set_ref = weakref.ref(group)
    draws_ref = weakref.ref(bootstrap_deviation_stats(group, grid, cfg))
    pool_ref = weakref.ref(bands._LAST)

    # The pool outlives its set, and a set of the same values reads it.
    values = group.values
    del group
    gc.collect()
    assert set_ref() is None and pool_ref() is bands._LAST
    assert bootstrap_deviation_stats(FRFSet(values), grid, cfg) is draws_ref()

    # A call on other values drops the pool before it draws, so one pool at
    # most is held: the old one is gone when the new walk starts.
    held = []
    replicates = bands._replicates

    def counted(*args):
        held.append((bands._LAST, pool_ref(), draws_ref()))
        return replicates(*args)

    monkeypatch.setattr(bands, "_replicates", counted)
    bootstrap_deviation_stats(FRFSet(2.0 * values), grid, cfg)
    assert held == [(None, None, None)]
    assert bands._LAST.pirs.tobytes() == pir_matrix(FRFSet(2.0 * values), grid).tobytes()


def test_scoring_builds_b_streams_not_three_b():
    grid, group, test = scored_group(22.0, 20, 2)
    cfg = BootstrapConfig(replications=50, seed=2)
    streams = CountingStreams(2)
    minimal_prediction_band(test, group, grid, cfg, streams)
    estimate_density(test, group, grid, cfg, streams=streams)
    prediction_band(group, grid, 0.95, cfg, streams)
    assert streams.built == cfg.replications


def test_alpha_bisection_builds_one_pool(walks):
    # Criterion 4's bisection: a minimal band, then 30 bands on one group.
    grid, train, test = scored_group(4.5, 20, 3)
    cfg = BootstrapConfig(replications=1000, seed=7)
    minimal = minimal_prediction_band(test, train, grid, cfg)
    x_test = pir_from_frf(test, grid).values
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = (lo + hi) / 2
        if prediction_band(train, grid, mid, cfg).contains(x_test):
            hi = mid
        else:
            lo = mid
    assert walks == [1000]
    assert abs(minimal.alpha - hi) <= 0.001


def test_minimal_band_refuses_a_mismatched_test_before_drawing():
    # A 3-component test against a 2-frequency set is refused before the
    # band bootstrap: no stream is built and no pool is kept for the set.
    grid = derive_grid([0.3, 0.5], 2.0)
    rng = np.random.default_rng(8)
    group = FRFSet(lowpass_mean_frf(grid) + 0.1 * rng.standard_normal((10, grid.m)))
    test = FRF(np.ones(3, dtype=complex))
    streams = CountingStreams(0)
    with pytest.raises(GridMismatch):
        minimal_prediction_band(test, group, grid, BootstrapConfig(replications=2000), streams)
    assert streams.built == 0
    assert bands._LAST is None


def test_density_and_minimal_band_refuse_a_mismatched_test_first():
    # A 3-component test against a zero-spread 11-frequency set: the test
    # is refused (GridMismatch) before the set's spread (DegenerateSpread)
    # and before any stream is built, by both calls alike.
    grid = derive_grid(EXPERIMENT_FREQS)
    flat = FRFSet(np.tile(lowpass_mean_frf(grid), (10, 1)))
    test = FRF(np.ones(3, dtype=complex))
    cfg = BootstrapConfig(replications=50)
    for call in (minimal_prediction_band, estimate_density):
        streams = CountingStreams(0)
        with pytest.raises(GridMismatch):
            call(test, flat, grid, cfg, streams=streams)
        assert streams.built == 0
        assert bands._LAST is None
    with pytest.raises(DegenerateSpread):
        estimate_density(FRF(lowpass_mean_frf(grid)), flat, grid, cfg)
