"""Tests for bootstrap plumbing: streams, index draws, and the histogram CDF."""

import numpy as np
import pytest

from frfstats.bands import bootstrap_deviation_stats
from frfstats.compare import compare_unpaired
from frfstats.density import estimate_density
from frfstats.grid import derive_grid
from frfstats.pir import FRF, FRFSet
from frfstats.resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    alpha_at,
    c_at,
    ecdf,
    resample_indices,
)

from support import EXPERIMENT_FREQS, traced_peak


def test_config_defaults_and_validation():
    cfg = BootstrapConfig()
    assert cfg.replications == 1000
    assert cfg.nested_replications == 50
    assert cfg.bins == 1000
    with pytest.raises(ValueError):
        BootstrapConfig(replications=0)
    with pytest.raises(ValueError):
        BootstrapConfig(nested_replications=1)
    with pytest.raises(ValueError):
        BootstrapConfig(bins=1)


def test_resample_single_index():
    streams = IndexStreams(0)
    assert list(resample_indices(1, streams.stream(0))) == [0]


def test_streams_are_deterministic_and_distinct():
    a = IndexStreams(42)
    b = IndexStreams(42)
    same = [
        resample_indices(100, s.stream(3, 1)) for s in (a, b)
    ]
    np.testing.assert_array_equal(same[0], same[1])

    draws = {}
    for key in [(0,), (1,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 1)]:
        draws[key] = tuple(resample_indices(50, a.stream(*key)))
    assert len(set(draws.values())) == len(draws)

    other_seed = resample_indices(100, IndexStreams(43).stream(3, 1))
    assert not np.array_equal(same[0], other_seed)


def test_index_frequencies_near_uniform():
    # Binomial(1000, 1/1000) has mean 1 and std just under 1, so every
    # count should sit within 1 +/- 5 for this fixed seed.
    draw = resample_indices(1000, IndexStreams(7).stream(0))
    counts = np.bincount(draw, minlength=1000)
    assert counts.min() >= 0
    assert counts.max() <= 6


def test_ecdf_two_halves():
    e = ecdf([1.0, 2.0, 3.0, 4.0], bins=2)
    np.testing.assert_allclose(e.bin_edges, [1.0, 2.5, 4.0])
    np.testing.assert_allclose(e.cdf, [0.5, 1.0])


def test_ecdf_constant_pool_widened():
    e = ecdf([3.0, 3.0, 3.0], bins=4)
    assert e.bin_edges[0] < 3.0 < e.bin_edges[-1]
    assert e.cdf[-1] == 1.0
    jumps = np.diff(np.concatenate([[0.0], e.cdf]))
    assert np.count_nonzero(jumps) == 1
    assert jumps.max() == 1.0


def test_ecdf_rejects_bad_input():
    with pytest.raises(ValueError):
        ecdf([], bins=10)
    with pytest.raises(ValueError):
        ecdf([1.0, np.nan], bins=10)


def test_ecdf_permutation_invariant():
    rng = np.random.default_rng(3)
    stats = rng.standard_normal(500)
    e1 = ecdf(stats, bins=40)
    e2 = ecdf(rng.permutation(stats), bins=40)
    np.testing.assert_array_equal(e1.bin_edges, e2.bin_edges)
    np.testing.assert_array_equal(e1.cdf, e2.cdf)


def test_rank_oracle_on_even_grid():
    # 2000 evenly spread values over 100 bins put exactly 20 in each bin,
    # so the histogram CDF can differ from the exact rank fraction by at
    # most one bin's worth of mass.
    n, bins = 2000, 100
    stats = (np.arange(n) + 0.5) / n
    e = ecdf(stats, bins=bins)
    rng = np.random.default_rng(4)
    for x in rng.uniform(stats[0], stats[-1], size=50):
        rank = np.searchsorted(stats, x, side="right") / n
        assert abs(alpha_at(e, x) - rank) <= 1.0 / bins + 1e-12


def test_alpha_at_clamps():
    e = ecdf([1.0, 2.0, 3.0, 4.0], bins=4)
    assert alpha_at(e, 0.5) == 0.0
    assert alpha_at(e, 4.0) == 1.0
    assert alpha_at(e, 99.0) == 1.0
    med = alpha_at(e, 2.5)
    assert abs(med - 0.5) <= 0.25 + 1e-12


def test_c_at_endpoints_and_uniform_quantile():
    n, bins = 2000, 100
    stats = (np.arange(n) + 0.5) / n
    e = ecdf(stats, bins=bins)
    assert c_at(e, 0.0) == e.bin_edges[0] == stats.min()
    assert c_at(e, 1.0) == e.bin_edges[-1] == stats.max()
    assert abs(c_at(e, 0.95) - 0.95) <= 2.0 / bins
    with pytest.raises(ValueError):
        c_at(e, 1.5)
    with pytest.raises(ValueError):
        c_at(e, -0.1)


def test_alpha_c_mutual_consistency():
    rng = np.random.default_rng(5)
    stats = rng.uniform(0.0, 1.0, size=5000)
    e = ecdf(stats, bins=50)
    for c in rng.uniform(stats.min(), stats.max(), size=100):
        back = c_at(e, alpha_at(e, c))
        assert c - e.bin_width <= back <= c + e.bin_width


def test_statecdf_validation():
    with pytest.raises(ValueError):
        StatEcdf(
            bin_edges=np.array([1.0, 2.0]),
            cdf=np.array([0.5, 1.0]),
        )
    with pytest.raises(ValueError):
        StatEcdf(
            bin_edges=np.array([1.0, 1.5, 2.0]),
            cdf=np.array([0.5, 0.9]),
        )


def _seeded_runs(replications):
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(30)
    values = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    # Two identical rows make some band replications degenerate, so the
    # per-replication redraw runs inside the loop.
    tied = FRFSet(np.concatenate([values[:3], values[:1]]))
    frfs = FRFSet(values)
    cfg = BootstrapConfig(replications=replications, nested_replications=6, seed=31)
    draws = bootstrap_deviation_stats(tied, grid, cfg)
    density = estimate_density(FRF(values[0] + 0.1), frfs, grid, cfg)
    small = BootstrapConfig(
        replications=min(replications, 30), nested_replications=6, seed=32
    )
    comparison = compare_unpaired(frfs, FRFSet(values[::-1] * 1.2), grid, 0.9, small)
    return draws, density, comparison


@pytest.mark.parametrize("short", [1, 7, 64])
def test_short_run_is_prefix_of_long_run(short):
    draws, density, comparison = _seeded_runs(130)
    first_draws = [
        resample_indices(4, IndexStreams(31).stream(b)) for b in range(130)
    ]
    assert any(not np.array_equal(r, d) for r, d in zip(draws.indices, first_draws))

    draws2, density2, comparison2 = _seeded_runs(short)
    for name in ("indices", "means", "stds", "stats"):
        np.testing.assert_array_equal(getattr(draws2, name), getattr(draws, name)[:short])
    np.testing.assert_array_equal(density2.cdf_stats, density.cdf_stats[:short])
    np.testing.assert_array_equal(density2.pdf_stats, density.pdf_stats[:short])
    np.testing.assert_array_equal(
        comparison2.draws.stats, comparison.draws.stats[: min(short, 30)]
    )


def test_bootstrap_memory_is_one_replication_deep():
    # T = 440 and N = 200: a replication's rows are 88,000 doubles, and
    # 64 of them at once would take 45 MB.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(40)
    values = rng.standard_normal((201, grid.m)) + 1j * rng.standard_normal((201, grid.m))
    frfs, test = FRFSet(values[:200]), FRF(values[200])
    cfg = BootstrapConfig(replications=64, seed=41)
    allowance = 8 * frfs.n * grid.n_samples * 8

    draws, peak = traced_peak(lambda: bootstrap_deviation_stats(frfs, grid, cfg))
    outputs = sum(getattr(draws, k).nbytes for k in ("indices", "means", "stds", "stats"))
    assert peak < outputs + allowance

    density, peak = traced_peak(lambda: estimate_density(test, frfs, grid, cfg))
    assert peak < density.cdf_stats.nbytes + density.pdf_stats.nbytes + allowance
