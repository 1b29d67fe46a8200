"""Tests for the unpaired two-group comparison."""

import numpy as np
import pytest

from frfstats import DegenerateSpread, GridMismatch, derive_grid
from frfstats.bands import Band
from frfstats.compare import compare_unpaired, residual_frf, residuals
from frfstats.pir import FRFSet, pir_matrix
from frfstats.resampling import MAX_REDRAWS, BootstrapConfig, IndexStreams

from support import EXPERIMENT_FREQS, FixedStreams, MirroredStreams, traced_peak

GRID = derive_grid([0.3, 0.5])


def group(seed, n=8, m=2, center=0.0, spread=0.5):
    rng = np.random.default_rng(seed)
    noise = spread * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return FRFSet(center + noise)


def test_identical_groups_never_reject():
    frfs = group(1)
    cfg = BootstrapConfig(replications=40, nested_replications=8, seed=2)
    result = compare_unpaired(frfs, frfs, GRID, 0.95, cfg)
    np.testing.assert_array_equal(result.diff_mean, 0.0)
    np.testing.assert_array_equal(result.residuals, 0.0)
    assert not result.reject_null
    assert result.band.contains(np.zeros(GRID.n_samples))


def test_pool_sizes_match_config():
    cfg = BootstrapConfig(replications=23, nested_replications=7, seed=3)
    result = compare_unpaired(group(4), group(5, n=6), GRID, 0.9, cfg)
    assert result.draws.stats.shape == (23,)
    assert result.draws.sigma_diffs.shape == (7, GRID.n_samples)
    assert result.draws.outer_indices1.shape == (23, 8)
    assert result.draws.outer_indices2.shape == (23, 6)


def test_swapping_groups_negates_everything():
    a, b = group(6), group(7, n=6, center=0.4)
    cfg = BootstrapConfig(replications=50, nested_replications=8, seed=8)
    fwd = compare_unpaired(a, b, GRID, 0.95, cfg)
    rev = compare_unpaired(
        b, a, GRID, 0.95, cfg, streams=MirroredStreams(IndexStreams(cfg.seed))
    )
    np.testing.assert_array_equal(rev.diff_mean, -fwd.diff_mean)
    np.testing.assert_array_equal(rev.sigma, fwd.sigma)
    np.testing.assert_array_equal(rev.draws.stats, fwd.draws.stats)
    assert rev.band.scale == fwd.band.scale
    np.testing.assert_array_equal(rev.residuals, -fwd.residuals)
    assert rev.reject_null == fwd.reject_null


def test_translation_leaves_comparison_unchanged():
    a, b = group(9), group(10, n=6)
    offset = np.array([1.5 - 0.5j, -2.0 + 1.0j])
    cfg = BootstrapConfig(replications=40, nested_replications=8, seed=11)
    plain = compare_unpaired(a, b, GRID, 0.95, cfg)
    shifted = compare_unpaired(
        FRFSet(a.values + offset), FRFSet(b.values + offset), GRID, 0.95, cfg
    )
    np.testing.assert_allclose(shifted.diff_mean, plain.diff_mean, atol=1e-12)
    np.testing.assert_allclose(shifted.sigma, plain.sigma, atol=1e-12)
    assert shifted.band.scale == pytest.approx(plain.band.scale, abs=1e-12)


def test_well_separated_groups_reject():
    a = group(12, n=10)
    b = FRFSet(group(13, n=10).values + np.array([3.0 + 0.0j, 0.0 + 0.0j]))
    cfg = BootstrapConfig(replications=80, nested_replications=10, seed=14)
    result = compare_unpaired(a, b, GRID, 0.95, cfg)
    assert result.reject_null
    assert np.any(result.residuals != 0.0)
    # The injected difference sits at the first grid frequency.
    mags = np.abs(result.residual_frf.values)
    assert mags[0] > mags[1]


def test_residuals_pointwise_oracle():
    band = Band(
        mean=np.array([2.0, -3.0, 0.5, -0.5]),
        std=np.array([0.5, 1.0, 1.0, 1.0]),
        scale=1.0,
        alpha=0.9,
    )
    r = residuals(band)
    expected = []
    for lo, hi in zip(band.lower, band.upper):
        if lo > 0:
            expected.append(lo)
        elif hi < 0:
            expected.append(hi)
        else:
            expected.append(0.0)
    np.testing.assert_allclose(r, expected, atol=1e-15)


def test_residual_frf_localizes_a_sinusoid():
    grid = derive_grid(EXPERIMENT_FREQS)
    r = np.cos(2.0 * np.pi * 0.55 * grid.times)
    h = residual_frf(r, grid)
    k = list(grid.frequencies).index(0.55)
    mags = np.abs(h.values)
    assert mags[k] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(mags, k)
    assert np.max(others) < 1e-9


def test_injected_indices_match_loop_arithmetic():
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    # Sigma draws: one (Bs, n) block per group.  Replication 0: one
    # (1 + Bs, n) block per group, the outer resample then nested positions.
    table = {
        (2,): [[[0, 1, 1], [1, 0, 2]]],
        (3,): [[[2, 2, 0], [0, 1, 2]]],
        (0, 0): [[[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        (0, 1): [[[0, 0, 1], [2, 0, 1], [1, 1, 0]]],
    }
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    result = compare_unpaired(a, b, grid, 0.5, cfg, streams=FixedStreams(table))

    p1, p2 = pir_matrix(a, grid), pir_matrix(b, grid)
    xm = p1.mean(axis=0) - p2.mean(axis=0)
    np.testing.assert_allclose(result.diff_mean, xm, atol=1e-12)

    sdiffs = [
        p1[[0, 1, 1]].mean(axis=0) - p2[[2, 2, 0]].mean(axis=0),
        p1[[1, 0, 2]].mean(axis=0) - p2[[0, 1, 2]].mean(axis=0),
    ]
    mean_s = (sdiffs[0] + sdiffs[1]) / 2.0
    var_s = (sdiffs[0] - mean_s) ** 2 + (sdiffs[1] - mean_s) ** 2
    np.testing.assert_allclose(result.sigma, np.sqrt(var_s), atol=1e-12)

    yb1, yb2 = p1[[2, 1, 0]], p2[[0, 0, 1]]
    xb = yb1.mean(axis=0) - yb2.mean(axis=0)
    np.testing.assert_allclose(result.draws.outer_diffs[0], xb, atol=1e-12)
    ndiffs = [
        yb1[[1, 1, 2]].mean(axis=0) - yb2[[2, 0, 1]].mean(axis=0),
        yb1[[0, 2, 2]].mean(axis=0) - yb2[[1, 1, 0]].mean(axis=0),
    ]
    mean_n = (ndiffs[0] + ndiffs[1]) / 2.0
    var_n = (ndiffs[0] - mean_n) ** 2 + (ndiffs[1] - mean_n) ** 2
    sb = np.sqrt(var_n)
    np.testing.assert_allclose(result.draws.nested_stds[0], sb, atol=1e-12)
    stat = np.max(np.abs(xm - xb) / sb)
    assert result.draws.stats[0] == pytest.approx(stat, abs=1e-12)


def test_degenerate_replication_is_redrawn():
    grid = derive_grid([1.0])
    a = FRFSet(np.array([[1.0 + 0.0j], [0.0 + 1.0j], [2.0 - 1.0j]]))
    b = FRFSet(np.array([[0.5 + 0.5j], [-1.0 + 0.0j], [1.0 + 1.0j]]))
    cfg = BootstrapConfig(replications=1, nested_replications=2, seed=0)
    sigma = {(2,): [[[0, 1, 1], [1, 0, 2]]], (3,): [[[2, 2, 0], [0, 1, 2]]]}
    valid = {
        (0, 0): [[[2, 1, 0], [1, 1, 2], [0, 2, 2]]],
        (0, 1): [[[0, 0, 1], [2, 0, 1], [1, 1, 0]]],
    }
    # An outer resample of one repeated member has zero nested spread in
    # both groups, so the replication must take each stream's next block.
    degenerate = {
        (0, 0): [[[1, 1, 1], [0, 1, 2], [2, 0, 1]]],
        (0, 1): [[[2, 2, 2], [1, 2, 0], [0, 0, 1]]],
    }

    def streams(blocks):
        return FixedStreams({**sigma, **blocks})

    direct = compare_unpaired(a, b, grid, 0.5, cfg, streams=streams(valid))
    for redraws in (1, MAX_REDRAWS):
        redrawn = compare_unpaired(
            a, b, grid, 0.5, cfg,
            streams=streams({k: degenerate[k] * redraws + valid[k] for k in valid}),
        )
        np.testing.assert_array_equal(redrawn.draws.outer_indices1, [[2, 1, 0]])
        np.testing.assert_array_equal(redrawn.draws.outer_indices2, [[0, 0, 1]])
        np.testing.assert_array_equal(redrawn.draws.stats, direct.draws.stats)

    exhausted = streams({k: degenerate[k] * (MAX_REDRAWS + 1) for k in valid})
    message = (
        f"a comparison replication kept zero nested spread after {MAX_REDRAWS} redraws"
    )
    with pytest.raises(DegenerateSpread, match=message):
        compare_unpaired(a, b, grid, 0.5, cfg, streams=exhausted)


def test_degenerate_groups_raise():
    row = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    a = FRFSet(np.tile(row, (4, 1)))
    cfg = BootstrapConfig(replications=5, nested_replications=4, seed=0)
    with pytest.raises(DegenerateSpread):
        compare_unpaired(a, a, GRID, 0.95, cfg)


def test_zero_spread_at_one_time_point_is_caught_exactly():
    # On a one-frequency grid the PIR at t = 0 is the real part, so members
    # that differ only in their imaginary parts agree there exactly: every
    # nested spread is zero at t = 0 and no redraw can help.  Unshifted
    # count-weight means leave a rounding-sized spread there instead.
    grid = derive_grid([1.0])
    rng = np.random.default_rng(15)
    a = FRFSet(0.1 + 1j * rng.standard_normal((8, 1)))
    b = FRFSet(0.7 + 1j * rng.standard_normal((6, 1)))
    assert np.ptp(pir_matrix(a, grid)[:, 0]) == 0.0
    assert np.ptp(pir_matrix(b, grid)[:, 0]) == 0.0
    cfg = BootstrapConfig(replications=5, nested_replications=8, seed=16)
    with pytest.raises(DegenerateSpread):
        compare_unpaired(a, b, grid, 0.95, cfg)


def test_validation():
    cfg = BootstrapConfig(replications=5, nested_replications=4, seed=0)
    with pytest.raises(ValueError):
        compare_unpaired(group(1, n=2), group(2), GRID, 0.95, cfg)
    with pytest.raises(ValueError):
        compare_unpaired(group(1), group(2), GRID, 1.5, cfg)
    with pytest.raises(GridMismatch):
        compare_unpaired(group(1, m=3), group(2, m=3), GRID, 0.95, cfg)


def test_comparison_memory_is_one_replication_deep():
    # T = 440 and N = 200: Bs = 50 resamples gathered at once would be
    # 4.4M doubles (35 MB) per group.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(42)
    values = rng.standard_normal((400, grid.m)) + 1j * rng.standard_normal((400, grid.m))
    set1, set2 = FRFSet(values[:200]), FRFSet(values[200:])
    cfg = BootstrapConfig(replications=4, nested_replications=50, seed=43)

    result, peak = traced_peak(lambda: compare_unpaired(set1, set2, grid, 0.95, cfg))
    outputs = sum(
        arr.nbytes
        for arr in (
            *(getattr(result.draws, k) for k in result.draws.__dataclass_fields__),
            result.diff_mean, result.sigma, result.residuals,
            result.band.upper, result.band.lower,
            result.stat_ecdf.pool,
            result.residual_frf.values,
        )
    )
    assert peak < outputs + 8 * set1.n * grid.n_samples * 8


def test_type_one_error_rate_small():
    cfg_base = dict(replications=60, nested_replications=8)
    rejections = 0
    runs = 20
    for run in range(runs):
        a = group(100 + run, n=8)
        b = group(200 + run, n=8)
        cfg = BootstrapConfig(seed=run, **cfg_base)
        rejections += compare_unpaired(a, b, GRID, 0.95, cfg).reject_null
    assert rejections / runs <= 0.25
