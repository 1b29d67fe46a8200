"""Tests for prediction bands and the minimal band."""

import numpy as np
import pytest

from frfstats import BandContainment, DegenerateSpread, derive_grid
from frfstats.bands import (
    Band,
    bootstrap_deviation_stats,
    minimal_prediction_band,
    prediction_band,
)
from frfstats.pir import FRF, FRFSet, pir_from_frf, pir_matrix, pir_stats
from frfstats.resampling import (
    MAX_REDRAWS,
    BootstrapConfig,
    IndexStreams,
    _replicates,
    alpha_at,
)

from support import EXPERIMENT_FREQS, FixedStreams


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
    table = {(0,): [[0, 1, 1]], (1,): [[2, 0, 2]]}
    cfg = BootstrapConfig(replications=2, seed=0)
    draws = bootstrap_deviation_stats(frfs, grid, cfg, FixedStreams(table))

    np.testing.assert_array_equal(draws.indices, [[0, 1, 1], [2, 0, 2]])
    pirs = pir_matrix(frfs, grid)
    # The record keeps no replicate curves; the loop that computes them does.
    replicates = _replicates(pirs, 2, FixedStreams(table))
    for b, (picks, (_, rep_mean, rep_std, _)) in enumerate(
        zip([[0, 1, 1], [2, 0, 2]], replicates)
    ):
        rows = [pirs[i] for i in picks]
        mean = sum(rows) / 3.0
        var = sum((r - mean) ** 2 for r in rows) / 2.0
        std = np.sqrt(var)
        np.testing.assert_allclose(rep_mean, mean, atol=1e-12)
        np.testing.assert_allclose(rep_std, std, atol=1e-12)
        for i in range(3):
            expected = max(abs(pirs[i] - mean) / std)
            assert draws.stats[b, i] == pytest.approx(expected, abs=1e-12)


def test_full_alpha_band_covers_every_original():
    grid = derive_grid([0.3, 0.5])
    frfs = small_set(seed=2, n=5)
    cfg = BootstrapConfig(replications=50, seed=11)
    band = prediction_band(frfs, grid, 1.0, cfg)
    draws = bootstrap_deviation_stats(frfs, grid, cfg, IndexStreams(cfg.seed))
    assert band.scale == pytest.approx(draws.pool.max(), rel=1e-12)
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
    with np.errstate(over="ignore"), pytest.raises(BandContainment):
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
    with pytest.raises(DegenerateSpread):
        prediction_band(frfs, grid, 0.9, BootstrapConfig(replications=10, seed=0))


def test_degenerate_replication_is_redrawn():
    grid = derive_grid([1.0])
    frfs = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    cfg = BootstrapConfig(replications=1, seed=0)
    streams = FixedStreams({(0,): [[1, 1, 1], [0, 1, 2]]})
    draws = bootstrap_deviation_stats(frfs, grid, cfg, streams)
    np.testing.assert_array_equal(draws.indices, [[0, 1, 2]])

    exhausted = FixedStreams({(0,): [[1, 1, 1]] * (MAX_REDRAWS + 1)})
    message = f"a bootstrap replication kept zero spread after {MAX_REDRAWS} redraws"
    with pytest.raises(DegenerateSpread, match=message):
        bootstrap_deviation_stats(frfs, grid, cfg, exhausted)


def test_too_few_samples_rejected():
    grid = derive_grid([0.3, 0.5])
    frfs = FRFSet(np.ones((2, 2)) + 1j * np.eye(2))
    with pytest.raises(ValueError):
        bootstrap_deviation_stats(frfs, grid, BootstrapConfig(seed=0))
    with pytest.raises(ValueError):
        prediction_band(small_set(), grid, 1.5, BootstrapConfig(seed=0))


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
