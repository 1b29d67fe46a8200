"""Tests for the FRF <-> PIR transform and PIR statistics."""

import numpy as np
import pytest

from frfstats import GridMismatch, SyntheticSpec, derive_grid, generate_synthetic, lowpass_mean_frf
from frfstats.pir import FRF, FRFSet, PIR, frf_from_pir, pir_from_frf, pir_matrix, pir_stats

from support import EXPERIMENT_FREQS


def random_frf(rng, m):
    return FRF(rng.standard_normal(m) + 1j * rng.standard_normal(m))


def test_zero_frf_gives_zero_pir():
    grid = derive_grid([0.3, 0.5])
    pir = pir_from_frf(FRF(np.zeros(2, dtype=complex)), grid)
    assert np.all(pir.values == 0.0)
    back = frf_from_pir(pir)
    assert np.all(back.values == 0.0)


def test_single_cosine():
    grid = derive_grid(EXPERIMENT_FREQS)
    h = np.zeros(grid.m, dtype=complex)
    h[0] = 1.0
    pir = pir_from_frf(FRF(h), grid)
    expected = np.cos(2.0 * np.pi * 0.05 * grid.times)
    np.testing.assert_allclose(pir.values, expected, atol=1e-12)

    # Projecting the raw cosine back isolates the first component.
    recovered = frf_from_pir(PIR(values=expected, grid=grid))
    assert recovered.values[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(recovered.values[1:])) < 1e-9


def test_single_sine_lands_in_imaginary_part():
    grid = derive_grid(EXPERIMENT_FREQS)
    signal = np.sin(2.0 * np.pi * 0.55 * grid.times)
    recovered = frf_from_pir(PIR(values=signal, grid=grid))
    k = list(grid.frequencies).index(0.55)
    assert recovered.values[k] == pytest.approx(1j, abs=1e-9)
    mask = np.arange(grid.m) != k
    assert np.max(np.abs(recovered.values[mask])) < 1e-9


def test_roundtrip_random_frfs():
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_frf(rng, grid.m)
        back = frf_from_pir(pir_from_frf(h, grid))
        err = np.abs(back.values - h.values) / np.maximum(np.abs(h.values), 1e-30)
        assert np.max(err) <= 1e-9


def test_roundtrip_independent_of_sample_rate():
    rng = np.random.default_rng(8)
    coarse = derive_grid(EXPERIMENT_FREQS)
    fine = derive_grid(EXPERIMENT_FREQS, sample_rate=2 * coarse.sample_rate)
    assert fine.n_samples == 2 * coarse.n_samples
    h = random_frf(rng, coarse.m)
    for grid in (coarse, fine):
        back = frf_from_pir(pir_from_frf(h, grid))
        np.testing.assert_allclose(back.values, h.values, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "freqs, rate, n",
    [(EXPERIMENT_FREQS, 22.0, 20), (EXPERIMENT_FREQS, 4.5, 200), ([0.3, 0.5], 2.1, 7)],
    ids=["T440-N20", "T90-N200", "T21-N7"],
)
def test_single_pir_equals_its_set_row_bit_for_bit(freqs, rate, n):
    # A response transformed alone has the bits of its row in the set, so
    # a test equal to a set member ties exactly with that member.
    grid = derive_grid(freqs, rate)
    frfs = generate_synthetic(SyntheticSpec(lowpass_mean_frf(grid), noise_std=0.1, n=n), seed=1)
    pirs = pir_matrix(frfs, grid)
    for i in range(frfs.n):
        assert np.array_equal(pir_from_frf(FRF(frfs.values[i]), grid).values, pirs[i]), i


def test_transform_is_linear():
    grid = derive_grid([0.3, 0.5, 0.7])
    rng = np.random.default_rng(9)
    h1, h2 = random_frf(rng, 3), random_frf(rng, 3)
    a, b = 2.5, -1.25
    combined = pir_from_frf(FRF(a * h1.values + b * h2.values), grid)
    separate = a * pir_from_frf(h1, grid).values + b * pir_from_frf(h2, grid).values
    np.testing.assert_allclose(combined.values, separate, atol=1e-12)


def test_pir_stats_matches_naive_loop():
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(10)
    frfs = FRFSet(rng.standard_normal((6, grid.m)) + 1j * rng.standard_normal((6, grid.m)))
    mean, std = pir_stats(frfs, grid)

    # Straight-line oracle: build each PIR sample by sample, then average
    # and take the N-1 standard deviation with explicit sums.
    pirs = [pir_from_frf(FRF(frfs.values[i]), grid).values for i in range(frfs.n)]
    naive_mean = sum(pirs) / len(pirs)
    var = sum((p - naive_mean) ** 2 for p in pirs) / (len(pirs) - 1)
    np.testing.assert_allclose(mean, naive_mean, atol=1e-12)
    np.testing.assert_allclose(std, np.sqrt(var), atol=1e-12)


def test_stats_mean_commutes_with_frf_mean():
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(11)
    frfs = FRFSet(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    mean, _ = pir_stats(frfs, grid)
    mean_pir = pir_from_frf(FRF(frfs.values.mean(axis=0)), grid)
    np.testing.assert_allclose(mean, mean_pir.values, atol=1e-12)


def test_identical_samples_have_zero_std():
    grid = derive_grid([0.3, 0.5])
    row = np.array([1.0 + 2.0j, -0.5 + 0.25j])
    frfs = FRFSet(np.tile(row, (4, 1)))
    _, std = pir_stats(frfs, grid)
    np.testing.assert_allclose(std, 0.0, atol=1e-15)


def test_opposite_pair_stats():
    grid = derive_grid([0.3, 0.5])
    rng = np.random.default_rng(12)
    h = random_frf(rng, 2)
    frfs = FRFSet(np.stack([h.values, -h.values]))
    mean, std = pir_stats(frfs, grid)
    x = pir_from_frf(h, grid).values
    np.testing.assert_allclose(mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(std, np.sqrt(2.0) * np.abs(x), atol=1e-12)


def test_mismatched_lengths_rejected():
    grid = derive_grid([0.3, 0.5])
    with pytest.raises(GridMismatch):
        pir_from_frf(FRF(np.ones(3, dtype=complex)), grid)
    with pytest.raises(GridMismatch):
        pir_matrix(FRFSet(np.ones((2, 3), dtype=complex)), grid)
    with pytest.raises(GridMismatch):
        PIR(values=np.zeros(grid.n_samples + 1), grid=grid)


def test_stats_require_two_samples():
    grid = derive_grid([0.3, 0.5])
    with pytest.raises(ValueError):
        pir_stats(FRFSet(np.ones((1, 2), dtype=complex)), grid)


def test_overflowing_pir_refused():
    # Finite FRF values whose PIR sums past the float range are refused
    # once, without a numpy RuntimeWarning; smaller ones still transform.
    grid = derive_grid([0.3, 0.5])
    huge = np.array([[1e308 + 1e308j, 1e308 + 1e308j], [-1e308 - 1e308j, -1e308 - 1e308j]])
    with pytest.raises(ValueError, match="PIR overflows"):
        pir_matrix(FRFSet(huge), grid)
    with pytest.raises(ValueError, match="PIR overflows"):
        pir_from_frf(FRF(huge[0]), grid)
    assert np.all(np.isfinite(pir_matrix(FRFSet(huge * 1e-10), grid)))
