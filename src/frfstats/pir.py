"""FRF containers and the lossless FRF <-> pseudo-impulse-response transform.

A frequency response function (FRF) is a complex vector H over the grid
frequencies f_k = m_k / period, with m_k the integer harmonics.  Its pseudo
impulse response (PIR) is the real signal

    x(t_n) = sum_k Re(H_k) cos(2 pi f_k t_n) + Im(H_k) sin(2 pi f_k t_n)

sampled at t_n = n / sample_rate over one period, which is the inverse real
DFT of the spectrum holding conj(H_k) / 2 at bin m_k and zero elsewhere.
Every m_k lies strictly below the Nyquist bin, so the forward real DFT reads
each H_k back and the transform is invertible up to rounding.  Each row is
transformed on its own, so a response's PIR has the same bits alone as in
a set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import hold
from .errors import GridMismatch
from .grid import FrequencyGrid


@dataclass(frozen=True, eq=False)
class FRF:
    """A single frequency response: complex value per grid frequency."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = hold(self, "values", complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("FRF values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("FRF values must be finite")


@dataclass(frozen=True, eq=False)
class FRFSet:
    """N frequency responses on a shared grid, stacked as an (N, M) array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = hold(self, "values", complex)
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
            raise ValueError("FRF set must be a non-empty 2-D array (N, M)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("FRF set values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PIR:
    """A pseudo impulse response: one period of the real time signal."""

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self) -> None:
        vals = hold(self, "values")
        if vals.shape != (self.grid.n_samples,):
            raise GridMismatch(
                f"PIR length {vals.shape} does not match the grid's "
                f"{self.grid.n_samples} samples"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("PIR values must be finite")


def _pirs(values: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """PIRs of FRF values whose last axis runs over the grid frequencies."""
    if values.shape[-1] != grid.m:
        raise GridMismatch(
            f"FRF has {values.shape[-1]} components but the grid has "
            f"{grid.m} frequencies"
        )
    spectrum = np.zeros(values.shape[:-1] + (grid.n_samples // 2 + 1,), dtype=complex)
    spectrum[..., list(grid.harmonics)] = values.conj() / 2
    # Huge finite FRF values can overflow: refuse once, never pass inf on.
    with np.errstate(over="ignore", invalid="ignore"):
        pirs = np.fft.irfft(spectrum, n=grid.n_samples, norm="forward")
    if not np.all(np.isfinite(pirs)):
        raise ValueError("FRF values are too large: their PIR overflows")
    return pirs


def pir_from_frf(frf: FRF, grid: FrequencyGrid) -> PIR:
    """Time-domain signal of a single FRF over one period."""
    return PIR(values=_pirs(frf.values, grid), grid=grid)


def pir_matrix(frf_set: FRFSet, grid: FrequencyGrid) -> np.ndarray:
    """PIRs of every sample in the set, stacked as an (N, n_samples) array."""
    return _pirs(frf_set.values, grid)


def frf_from_pir(pir: PIR) -> FRF:
    """Read a PIR's FRF off its grid's harmonic bins of the real DFT.

    H_k is twice the conjugate of bin m_k, normalized by 1/n_samples, so
    ``frf_from_pir(pir_from_frf(h, g))`` is h up to rounding.
    """
    spectrum = np.fft.rfft(pir.values, norm="forward")
    return FRF(values=2 * spectrum[list(pir.grid.harmonics)].conj())


def _refuse_overflowing_stats(pirs: np.ndarray, nested: int = 0) -> None:
    """Refuse a group whose PIRs are too large for finite statistics.

    With P the largest |PIR| of every group in play, no deviation that a
    statistic squares exceeds 8 * P: a row or mean of one group deviates
    from another such mean by at most 2 * P, a two-group mean difference
    from another by at most 4 * P, and a difference of two groups'
    centred, shifted nested means (`compare_unpaired`'s `draw`: each is at
    most 4 * P as its weights sum to at most 2 in absolute value, and its
    outer mean at most P, as the row-0 weights sum to 1) by at most 8 * P.
    Each sum of squares runs over at most K = max(N, T, nested) terms, so
    it stays finite, with a factor of two to spare for rounding, while
    128 * K * P**2 is at most the largest float.
    """
    terms = max(*pirs.shape, nested)
    if np.max(np.abs(pirs)) > np.sqrt(np.finfo(float).max / (128 * terms)):
        raise ValueError("FRF values are too large: statistics of their PIRs overflow")


def _mean_std(pirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and N-1 std of PIRs, refused if those would overflow."""
    _refuse_overflowing_stats(pirs)
    return pirs.mean(axis=0), pirs.std(axis=0, ddof=1)


def pir_stats(frf_set: FRFSet, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise ``(mean, std)`` of the set's PIRs; the std uses N-1."""
    if frf_set.n < 2:
        raise ValueError("need at least two samples for PIR statistics")
    return _mean_std(pir_matrix(frf_set, grid))
