"""Tests for bootstrap plumbing: streams, index draws, and the pool's ECDF."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frfstats.bands import bootstrap_deviation_stats, minimal_prediction_band, prediction_band
from frfstats.compare import compare_unpaired
from frfstats.density import estimate_density
from frfstats.grid import derive_grid
from frfstats.pir import FRF, FRFSet, pir_stats
from frfstats.resampling import (
    STREAM_LAYOUT,
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    alpha_at,
    c_at,
    ecdf,
)

from support import EXPERIMENT_FREQS, drop_pool, traced_peak


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
    for name, value in [
        ("replications", 2.5),
        ("nested_replications", 2.5),
        ("seed", 1.7),
        ("bins", 2.5),
        ("replications", True),
        ("seed", np.float64(3.0)),
        ("replications", "5"),
        ("replications", None),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            BootstrapConfig(**{name: value})
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        BootstrapConfig(seed=-1)
    cfg = BootstrapConfig(replications=np.int64(7), seed=np.uint32(5))
    assert (cfg.replications, cfg.seed) == (7, 5)


def test_resample_single_index():
    streams = IndexStreams(0)
    assert list(streams.stream(0).integers(0, 1, size=1)) == [0]


def test_streams_are_deterministic_and_distinct():
    a = IndexStreams(42)
    b = IndexStreams(42)
    same = [
        s.stream(3).integers(0, 100, size=100) for s in (a, b)
    ]
    np.testing.assert_array_equal(same[0], same[1])

    draws = {}
    for key in [0, 1, 2, 3, 255, 256, 2**32 - 1]:
        draws[key] = tuple(a.stream(key).integers(0, 50, size=50))
    assert len(set(draws.values())) == len(draws)

    other_seed = IndexStreams(43).stream(3).integers(0, 100, size=100)
    assert not np.array_equal(same[0], other_seed)


def test_index_frequencies_near_uniform():
    # Binomial(1000, 1/1000) has mean 1 and std just under 1, so every
    # count should sit within 1 +/- 5 for this fixed seed.
    draw = IndexStreams(7).stream(0).integers(0, 1000, size=1000)
    counts = np.bincount(draw, minlength=1000)
    assert counts.min() >= 0
    assert counts.max() <= 6


# Seeds of one to seven 32-bit words, at and around the word boundaries;
# from four words on, SeedSequence pads no more.
_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**128, 2**160 + 7, 2**200 + 11]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_streams_are_seed_sequence_generators(seed):
    # Keys 0..600 ascending, descending and shuffled cross the 256-key
    # blocks in every direction; then the comparison's keys and the largest.
    ascending = list(range(601))
    shuffled = [ascending[k] for k in np.random.default_rng(seed % 97).permutation(601)]
    pair = IndexStreams(seed), IndexStreams(seed)
    for i, key in enumerate(ascending + ascending[::-1] + shuffled + [2, 3, 2**32 - 1]):
        gen = pair[i % 2].stream(key)
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        assert gen.bit_generator.state == ref.bit_generator.state, key
        assert gen.integers(0, 2**63) == ref.integers(0, 2**63), key


def test_negative_seed_or_key_is_refused():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        IndexStreams(-1)
    for key in [-1, -(2**40)]:
        with pytest.raises(ValueError, match=rf"^stream key {key} is not in \[0, 2\*\*32\)$"):
            IndexStreams(0).stream(key)


def test_stream_key_is_one_integer_below_2_to_the_32():
    # Several keys, a float or a key of 2**32 or more is refused before a
    # stream is built, and the streams built after a refusal are numpy's.
    streams = IndexStreams(5)
    for key in [(3, 1), (0, 0, 1), ()]:
        with pytest.raises(TypeError):
            streams.stream(*key)
    for key in [1.5, 2.0, np.float64(3.0), "3", None]:
        with pytest.raises(TypeError):
            streams.stream(key)
    for key in [2**32, 2**40]:
        with pytest.raises(ValueError, match=rf"^stream key {key} is not in \[0, 2\*\*32\)$"):
            streams.stream(key)
    for key in [np.int64(300), np.uint32(7), 2**32 - 1, 0]:
        ref = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(int(key),)))
        assert streams.stream(key).bit_generator.state == ref.bit_generator.state


def test_seed_is_refused_or_seeded_as_numpy_does():
    # SeedSequence refuses a float seed or key rather than truncating it.
    with pytest.raises(TypeError):
        IndexStreams(1.5)
    with pytest.raises(TypeError):
        IndexStreams(0).stream(1.5)
    for seed in [np.int64(7), np.uint32(2**32 - 1)]:
        streams = IndexStreams(seed)
        for key in [0, 300, 3]:
            ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
            assert streams.stream(key).bit_generator.state == ref.bit_generator.state


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds about a third to the package's import; the streams
    # load it when the first one is built, and the PIR transform loads
    # numpy.fft on its first call.  numpy 1.x loads both in its own
    # __init__, so the check is against what a bare ``import numpy`` loads.
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy; bare = set(sys.modules); import frfstats, frfstats.cli; "
            "print(*sorted({'numpy.random', 'numpy.fft'} & (set(sys.modules) - bare)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.split() == []


def test_ecdf_two_halves():
    e = ecdf([4.0, 2.0, 1.0, 3.0])
    np.testing.assert_array_equal(e.pool, [1.0, 2.0, 3.0, 4.0])
    assert alpha_at(e, 2.5) == 0.5
    # 3.0 is the smallest statistic whose CDF, 0.75, exceeds 0.5.
    assert c_at(e, 0.5) == 3.0


def test_ecdf_rejects_bad_input():
    with pytest.raises(ValueError):
        ecdf([])
    with pytest.raises(ValueError):
        ecdf([1.0, np.nan])


def test_ecdf_permutation_invariant():
    rng = np.random.default_rng(3)
    stats = rng.standard_normal(500)
    e1 = ecdf(stats)
    e2 = ecdf(rng.permutation(stats).reshape(20, 25))
    np.testing.assert_array_equal(e1.pool, e2.pool)


def test_alpha_at_clamps():
    e = ecdf([1.0, 2.0, 3.0, 4.0])
    assert alpha_at(e, 0.5) == 0.0
    assert alpha_at(e, 4.0) == 1.0
    assert alpha_at(e, 99.0) == 1.0
    assert alpha_at(e, 2.5) == 0.5
    with pytest.raises(ValueError):
        alpha_at(e, np.inf)


def test_c_at_endpoints_and_uniform_quantile():
    n = 2000
    stats = (np.arange(n) + 0.5) / n
    e = ecdf(stats)
    assert c_at(e, 0.0) == stats.min()
    assert c_at(e, 1.0) == stats.max()
    # Ranks 1..1900 have r / n <= 0.95, so the 1901st smallest is returned.
    assert c_at(e, 0.95) == stats[1900]
    with pytest.raises(ValueError):
        c_at(e, 1.5)
    with pytest.raises(ValueError):
        c_at(e, -0.1)


def test_statecdf_validation():
    for bad in ([], [np.nan], [0.0, np.inf], [[1.0, -np.inf]]):
        with pytest.raises(ValueError):
            StatEcdf(np.array(bad))
    # The pool is held flattened and sorted, whatever order it came in.
    e = StatEcdf(np.array([[2.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(e.pool, [0.0, 1.0, 1.0, 2.0])


def pools():
    """Pools with ties, of one element, constant, and of arbitrary floats."""
    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    tied = st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=40)
    constant = st.builds(lambda v, n: [v] * n, finite, st.integers(1, 30))
    return st.one_of(tied, constant, st.lists(finite, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pool=pools(), alphas=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_lookups_are_exact_order_statistics(pool, alphas):
    m = len(pool)
    e = ecdf(pool)
    # Brute force: the CDF at c counts the pool at or below c, and the
    # scale for alpha is the smallest pool value whose CDF exceeds alpha.
    cdf = {v: sum(w <= v for w in pool) / m for v in pool}

    def brute_c(alpha):
        above = [v for v in pool if cdf[v] > alpha]
        return min(above) if above else max(pool)

    for v in pool:
        for c in (v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)):
            if np.isfinite(c):
                assert alpha_at(e, c) == sum(w <= c for w in pool) / m
    steps = [j / m for j in range(m + 1)]
    nudged = [np.nextafter(a, b) for a in steps for b in (0.0, 1.0)]
    for alpha in steps + nudged + alphas:
        assert c_at(e, alpha) == brute_c(alpha)


def test_readme_states_the_stream_layout():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"STREAM_LAYOUT = {STREAM_LAYOUT}" in readme
    assert f"\n| {STREAM_LAYOUT} |" in readme


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
        IndexStreams(31).stream(b).integers(0, 4, size=4) for b in range(130)
    ]
    assert any(not np.array_equal(r, d) for r, d in zip(draws.indices, first_draws))

    draws2, density2, comparison2 = _seeded_runs(short)
    for name in ("indices", "stats"):
        np.testing.assert_array_equal(getattr(draws2, name), getattr(draws, name)[:short])
    np.testing.assert_array_equal(density2.cdf_stats, density.cdf_stats[:short])
    np.testing.assert_array_equal(density2.pdf_stats, density.pdf_stats[:short])
    np.testing.assert_array_equal(
        comparison2.draws.stats, comparison.draws.stats[: min(short, 30)]
    )


def test_bootstrap_memory_is_one_replication_deep(walks):
    # T = 440 and N = 200: a replication's rows are 88,000 doubles, and
    # 64 of them at once would take 45 MB.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(40)
    values = rng.standard_normal((201, grid.m)) + 1j * rng.standard_normal((201, grid.m))
    frfs, test = FRFSet(values[:200]), FRF(values[200])
    cfg = BootstrapConfig(replications=64, seed=41)
    allowance = 8 * frfs.n * grid.n_samples * 8

    draws, peak = traced_peak(lambda: bootstrap_deviation_stats(frfs, grid, cfg))
    outputs = draws.indices.nbytes + draws.stats.nbytes
    assert peak < outputs + allowance

    # The density ranks on the band's pool for `frfs` (no walk), and draws
    # its own on a copy of the set once the pool is dropped (one walk).
    walks.clear()
    for group, drawn in ((frfs, []), (FRFSet(frfs.values), [64])):
        if drawn:
            drop_pool()
        density, peak = traced_peak(lambda: estimate_density(test, group, grid, cfg))
        assert peak < density.cdf_stats.nbytes + density.pdf_stats.nbytes + allowance
        assert walks == drawn


@pytest.mark.parametrize("method", ["band", "comparison"])
def test_band_record_keeps_no_replicate_curves(method):
    # T = 440, N = 20, B = 1000: B replicate curves would take 3.5 MB each;
    # the record is the B x N (and Bs x N) indices and statistics alone.
    # The comparison may also hold its Bs sigma differences a while.
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(42)
    n, T, bs = 20, grid.n_samples, 50

    def group():
        return FRFSet(rng.standard_normal((n, grid.m)) + 1j * rng.standard_normal((n, grid.m)))

    frfs, other = group(), group()
    cfg = BootstrapConfig(replications=1000, nested_replications=bs, seed=43)
    if method == "band":
        call = lambda: bootstrap_deviation_stats(frfs, grid, cfg)
        fields, allowance = ["indices", "stats"], 8 * n * T * 8
    else:
        call = lambda: compare_unpaired(frfs, other, grid, 0.9, cfg).draws
        fields = ["outer_indices1", "outer_indices2", "sigma_indices1", "sigma_indices2", "stats"]
        allowance = 8 * n * T * 8 + 4 * bs * T * 8

    draws, peak = traced_peak(call)
    assert sorted(vars(draws)) == fields
    assert peak < sum(a.nbytes for a in vars(draws).values()) + allowance


def test_large_groups_give_finite_statistics():
    # Scaling by a power of two is exact, so groups at 2**332 (about 1e100)
    # give the unit-scale results scaled, finite and unrefused; at 1e200
    # squared deviations would overflow and every statistic is refused.
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(44)
    values = rng.standard_normal((81, 2)) + 1j * rng.standard_normal((81, 2))
    cfg = BootstrapConfig(replications=40, nested_replications=5, seed=45)

    def calls(scale):
        group, other = FRFSet(scale * values[:40]), FRFSet(scale * values[40:80])
        test = FRF(scale * values[80])
        return [
            lambda: pir_stats(group, grid),
            lambda: bootstrap_deviation_stats(group, grid, cfg),
            lambda: prediction_band(group, grid, 0.9, cfg),
            lambda: minimal_prediction_band(test, group, grid, cfg),
            lambda: estimate_density(test, group, grid, cfg, metric="max"),
            lambda: compare_unpaired(group, other, grid, 0.9, cfg),
        ]

    k = 2.0**332
    (mean, std), draws, band, minimal, density, comparison = (f() for f in calls(1.0))
    (big_mean, big_std), big_draws, big_band, big_minimal, big_density, big_comparison = (
        f() for f in calls(k)
    )
    np.testing.assert_array_equal(big_mean, k * mean)
    np.testing.assert_array_equal(big_std, k * std)
    np.testing.assert_array_equal(big_draws.stats, draws.stats)
    np.testing.assert_array_equal(big_band.upper, k * band.upper)
    assert big_minimal.alpha == minimal.alpha
    np.testing.assert_array_equal(big_density.cdf_stats, density.cdf_stats)
    np.testing.assert_array_equal(big_density.pdf_stats, density.pdf_stats / k)
    np.testing.assert_array_equal(big_comparison.band.lower, k * comparison.band.lower)
    assert np.all(np.isfinite(big_comparison.band.lower))

    for call in calls(1e200):
        with pytest.raises(ValueError, match="statistics of their PIRs overflow"):
            call()
