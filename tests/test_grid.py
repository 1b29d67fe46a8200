"""Tests for frequency grid derivation."""

import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frfstats import (
    GridError,
    NonCommensurableFrequencies,
    NyquistViolation,
    derive_grid,
)
from frfstats.grid import COMMENSURATE_RTOL, MAX_SAMPLES, FrequencyGrid, _common_denominator

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
    assert times[-1] == pytest.approx(grid.period - 1 / grid.sample_rate, rel=1e-12)


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


def test_smallest_denominator_wins_over_per_frequency_rationals():
    # The float's own best rational below 10^6 has denominator 999,716, but
    # 1.0176 = 636 / 625 already fits within 1e-9 relative.
    assert _common_denominator(np.array([1.0175999990325204])) == 625
    assert FrequencyGrid([1.0175999990325204]).base_frequency == 1.0176


def test_fit_is_judged_exactly():
    # The float 1.000000001 is 1 + 1.00000008e-9: over 1e-9 relative for
    # every q <= 10^6, though a float search accepts q = 35 because 35 * f
    # rounds down onto the tolerance.
    with pytest.raises(NonCommensurableFrequencies):
        _common_denominator(np.array([1.000000001]))
    # 66 * f is within 1e-9 relative of 1009, but the float product rounds
    # just outside, so a float filter without slack skips q = 66 for 198.
    assert _common_denominator(np.array([15.287878803166667])) == 66


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
        FrequencyGrid([1.0], MAX_SAMPLES + 1)


def test_refusals_are_grid_errors_with_readable_numbers():
    # Too large for a float: refused, not an OverflowError.
    with pytest.raises(GridError, match="sample rate inf Hz must be finite"):
        derive_grid([1.0], 10**400)
    with pytest.raises(GridError, match="frequencies must be finite"):
        derive_grid([10**400])
    # A count past 15 digits is printed to four significant digits, even
    # one too large for a float.
    with pytest.raises(GridError, match=r"have 1\.000e\+300 samples per period") as err:
        derive_grid([1.0, 2.0], 1e300)
    assert len(str(err.value)) < 130
    with pytest.raises(GridError, match=r"have 1\.000e\+314 samples per period"):
        derive_grid([1e-6], 1e308)
    with pytest.raises(GridError, match="have 999999999999999 samples per period"):
        derive_grid([1.0], 999_999_999_999_999)


def test_grid_is_immutable():
    grid = derive_grid([1.0])
    with pytest.raises(Exception):
        grid.frequencies[0] = 2.0


@st.composite
def grid_inputs(draw):
    """A frequency vector and a requested rate, most of them commensurable.

    One branch draws exact k / q vectors, one perturbs such a vector by up
    to 2e-9 relative, around the tolerance, and one draws random floats.
    """
    kind = draw(st.sampled_from(["exact", "perturbed", "random"]))
    if kind == "random":
        freqs = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3, unique=True)))
    else:
        q = draw(st.sampled_from([1, 3, 20, 625, 1000, 1897, 10**6]) | st.integers(1, 10**6))
        ks = draw(st.lists(st.integers(1, 500), min_size=1, max_size=12, unique=True))
        freqs = np.sort(ks) * draw(st.integers(1, 7)) / q
        if kind == "perturbed":
            rel = draw(st.lists(st.floats(-2e-9, 2e-9), min_size=freqs.size, max_size=freqs.size))
            freqs = freqs * (1.0 + np.array(rel))
        freqs = freqs.tolist()
    rate = draw(st.none() | st.floats(1.5, 60.0).map(lambda x: x * freqs[-1]))
    return freqs, rate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=grid_inputs())
def test_every_accepted_grid_is_consistent_by_construction(inputs):
    try:
        grid = FrequencyGrid(*inputs)
    except GridError:
        return
    base = grid.base_frequency
    assert 1 <= grid.n_samples <= MAX_SAMPLES
    assert 2 * grid.harmonics[-1] < grid.n_samples
    # Each frequency is k * base within 1e-9 relative, judged exactly on the
    # rational base g / q that base_frequency is the float of.
    q = _common_denominator(grid.frequencies)
    exact_base = Fraction(round(base * q), q)
    assert float(exact_base) == base
    for f, k in zip(grid.frequencies.tolist(), grid.harmonics):
        assert abs(k * exact_base - Fraction(f)) <= Fraction(1e-9) * Fraction(f)
    assert abs(grid.period * base - 1.0) <= 1e-9
    assert abs(grid.n_samples * base - grid.sample_rate) <= 1e-9 * grid.sample_rate
    # The stored fields derive the same grid again, which is what makes a
    # dataset's save -> load exact.
    again = FrequencyGrid(grid.frequencies, grid.sample_rate)
    assert np.array_equal(again.frequencies, grid.frequencies)
    for name in ("sample_rate", "base_frequency", "period", "n_samples", "harmonics"):
        assert getattr(again, name) == getattr(grid, name)
    # The denominator is the smallest that fits: no smaller candidate up to
    # 10^4 fits exactly.  A float pass over all of them at once, with a few
    # ulps of slack, keeps every exact fit; what it keeps is judged exactly.
    scaled = np.arange(1, min(q, 10**4 + 1))[:, None] * grid.frequencies
    near = np.abs(scaled - np.rint(scaled)) <= COMMENSURATE_RTOL * scaled + 4 * np.spacing(scaled)
    rtol = Fraction(COMMENSURATE_RTOL)
    for c in (np.flatnonzero(np.all(near, axis=1)) + 1).tolist():
        fs = [Fraction(f) * c for f in grid.frequencies.tolist()]
        assert not all(abs(s - round(s)) <= rtol * s for s in fs)
