"""Tests for frequency grid derivation."""

import sys
import tracemalloc

import numpy as np
import pytest

from frfstats import (
    GridError,
    NonCommensurableFrequencies,
    NyquistViolation,
    derive_grid,
)
from frfstats.grid import MAX_SAMPLES, FrequencyGrid, _common_denominator

from support import EXPERIMENT_FREQS


def test_experiment_grid_values():
    # Oracle worked by hand: scaling by 20 gives integers
    # [1, 3, 6, 8, 11, 14, 18, 22, 27, 35, 44] with gcd 1, so the base is
    # 1/20 Hz and the period 20 s.  The default rate is 10 * 2.2 = 22 Hz,
    # giving 440 samples per period.
    grid = derive_grid(EXPERIMENT_FREQS)
    assert grid.base_frequency == pytest.approx(0.05, rel=1e-12)
    assert grid.period == pytest.approx(20.0, rel=1e-12)
    assert grid.sample_rate == pytest.approx(22.0, rel=1e-12)
    assert grid.n_samples == 440
    assert grid.harmonics == (1, 3, 6, 8, 11, 14, 18, 22, 27, 35, 44)
    assert grid.m == len(EXPERIMENT_FREQS)


def test_single_frequency():
    grid = derive_grid([1.0])
    assert grid.base_frequency == pytest.approx(1.0)
    assert grid.period == pytest.approx(1.0)
    assert grid.sample_rate == pytest.approx(10.0)
    assert grid.n_samples == 10
    assert grid.harmonics == (1,)


def test_base_below_every_frequency():
    # gcd(0.3, 0.5) = 0.1 even though 0.1 is not in the vector.
    grid = derive_grid([0.3, 0.5])
    assert grid.base_frequency == pytest.approx(0.1, rel=1e-12)
    assert grid.period == pytest.approx(10.0, rel=1e-12)
    assert grid.harmonics == (3, 5)


def test_explicit_sample_rate_reconciled():
    # Requesting 4.5 Hz over a 20 s period gives exactly 90 samples.
    grid = derive_grid(EXPERIMENT_FREQS, sample_rate=4.5)
    assert grid.n_samples == 90
    assert grid.sample_rate == pytest.approx(4.5, rel=1e-12)
    # Non-integral products are rounded, then the rate is adjusted so the
    # time grid still divides the period exactly.
    grid = derive_grid([1.0], sample_rate=10.3)
    assert grid.n_samples == 10
    assert grid.sample_rate == pytest.approx(10.0, rel=1e-12)
    assert grid.n_samples * grid.base_frequency == pytest.approx(
        grid.sample_rate, rel=1e-12
    )


def test_times_cover_one_period():
    grid = derive_grid([0.3, 0.5])
    times = grid.times
    assert times.shape == (grid.n_samples,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(grid.period - grid.time_step, rel=1e-12)


def test_nyquist_rejected():
    with pytest.raises(NyquistViolation):
        derive_grid([1.0], sample_rate=2.0)
    with pytest.raises(NyquistViolation, match="twice the highest frequency"):
        # Rounding 2.2 samples per period down to 2 breaks the strict bound.
        derive_grid([1.0], sample_rate=2.2)


def test_non_commensurable_rejected():
    # A single irrational ratio is always reconciled by some continued
    # fraction convergent below the denominator cap, so three independent
    # irrationals are needed to defeat the search (verified by exhaustive
    # scan: no q <= 10^6 fits all three within 1e-9 relative).
    with pytest.raises(NonCommensurableFrequencies):
        derive_grid([np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0)])


def test_scan_reconciles_what_the_lcm_path_misses():
    # Both are k / 1897 within 1e-9 relative, but each float's own best
    # rational below 10^6 has another denominator, and their lcm is too big.
    assert _common_denominator(np.array([24.55192406747081, 38.62941488516335])) == 1897


def test_scan_memory_does_not_grow_with_frequency_count():
    freqs = np.sort(np.random.default_rng(3).uniform(0.1, 5.0, size=100))
    tracemalloc.start()
    try:
        with pytest.raises(NonCommensurableFrequencies):
            _common_denominator(freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 65,536-candidate chunk and a few same-sized temporaries, not
    # 65,536 x 100 (about 210 MB per temporary before).
    assert peak < 8e6


def test_invalid_vectors_rejected():
    with pytest.raises(GridError):
        derive_grid([])
    with pytest.raises(GridError):
        derive_grid([0.5, 0.5])
    with pytest.raises(GridError):
        derive_grid([0.5, 0.3])
    with pytest.raises(GridError):
        derive_grid([-0.5, 0.3])
    with pytest.raises(GridError):
        derive_grid([0.0, 0.3])


def test_oversized_grids_rejected():
    # A 1e-4 Hz base frequency at 1000 Hz is 10^7 samples per period.
    with pytest.raises(GridError, match="10000000 samples per period"):
        derive_grid([1e-4, 1.0], 1000)
    # The sample count is checked before the reconciled rate is made a
    # float, which would overflow here.
    with pytest.raises(GridError, match="samples per period"):
        derive_grid([2e300], sys.float_info.max)
    assert derive_grid([1.0], sample_rate=MAX_SAMPLES).n_samples == MAX_SAMPLES
    with pytest.raises(GridError, match=f"{MAX_SAMPLES + 1} samples per period"):
        FrequencyGrid(
            frequencies=np.array([1.0]),
            base_frequency=1.0,
            period=1.0,
            sample_rate=float(MAX_SAMPLES + 1),
            n_samples=MAX_SAMPLES + 1,
        )


def test_direct_construction_checks_consistency():
    with pytest.raises(GridError):
        FrequencyGrid(
            frequencies=np.array([1.0]),
            base_frequency=1.0,
            period=1.0,
            sample_rate=11.0,
            n_samples=10,
        )
    with pytest.raises(NonCommensurableFrequencies):
        FrequencyGrid(
            frequencies=np.array([1.0, 2.5]),
            base_frequency=1.0,
            period=1.0,
            sample_rate=25.0,
            n_samples=25,
        )


def test_grid_is_immutable():
    grid = derive_grid([1.0])
    with pytest.raises(Exception):
        grid.frequencies[0] = 2.0
