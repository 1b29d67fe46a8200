"""FRF containers and the lossless FRF <-> pseudo-impulse-response transform.

A frequency response function (FRF) is a complex vector over the grid
frequencies.  Its pseudo impulse response (PIR) is the real time signal

    x(t_n) = sum_k Re(H_k) cos(2 pi f_k t_n) + Im(H_k) sin(2 pi f_k t_n)

sampled at t_n = n / sample_rate over one period.  On a commensurable grid
the sampled sinusoids are exactly orthogonal, so the transform is invertible
and the inverse is a plain projection with a 2/n_samples normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .grid import FrequencyGrid


@dataclass(frozen=True)
class FRF:
    """A single frequency response: complex value per grid frequency."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("FRF values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("FRF values must be finite")

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FRFSet:
    """N frequency responses on a shared grid, stacked as an (N, M) array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
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

    def sample(self, i: int) -> FRF:
        return FRF(self.values[i])


@dataclass(frozen=True)
class PIR:
    """A pseudo impulse response: one period of the real time signal."""

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_samples,):
            raise GridMismatch(
                f"PIR length {vals.shape} does not match the grid's "
                f"{self.grid.n_samples} samples"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("PIR values must be finite")


@dataclass(frozen=True)
class PirStats:
    """Pointwise mean and standard deviation of a set of PIRs.

    The standard deviation uses the N-1 divisor.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        for arr in (mean, std):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D vectors of equal length")
        if np.any(std < 0):
            raise ValueError("std must be non-negative")


def _basis(n_samples: int, harmonics: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Sampled cosine/sine basis, shape (M, n_samples) each.

    The phase 2 pi f_k t_n reduces to 2 pi (m_k n mod n_samples) / n_samples
    with m_k the integer harmonic, so it is computed in exact integer
    arithmetic before the single rounding step inside cos/sin.  That keeps
    the basis exactly orthogonal in floating point up to ~1e-16 per sample.
    """
    n = np.arange(n_samples, dtype=np.int64)
    m = np.asarray(harmonics, dtype=np.int64)
    phase = (m[:, None] * n[None, :]) % n_samples
    angle = (2.0 * np.pi / n_samples) * phase
    return np.cos(angle), np.sin(angle)


def _check_m(values: np.ndarray, grid: FrequencyGrid) -> None:
    if values.shape[-1] != grid.m:
        raise GridMismatch(
            f"FRF has {values.shape[-1]} components but the grid has "
            f"{grid.m} frequencies"
        )


def pir_from_frf(frf: FRF, grid: FrequencyGrid) -> PIR:
    """Time-domain signal of a single FRF over one period."""
    _check_m(frf.values, grid)
    cos, sin = _basis(grid.n_samples, grid.harmonics)
    values = frf.values.real @ cos + frf.values.imag @ sin
    return PIR(values=values, grid=grid)


def pir_matrix(frf_set: FRFSet, grid: FrequencyGrid) -> np.ndarray:
    """PIRs of every sample in the set, stacked as an (N, n_samples) array."""
    _check_m(frf_set.values, grid)
    cos, sin = _basis(grid.n_samples, grid.harmonics)
    return frf_set.values.real @ cos + frf_set.values.imag @ sin


def frf_from_pir(pir: PIR, grid: FrequencyGrid | None = None) -> FRF:
    """Project a time signal back onto the grid sinusoids.

    Parameters
    ----------
    pir : PIR
        One period of the signal.
    grid : FrequencyGrid, optional
        Defaults to the PIR's own grid; when given it must match.

    Returns
    -------
    FRF
        Re(H_k) and Im(H_k) recovered with the 2/n_samples normalization,
        so ``frf_from_pir(pir_from_frf(h, g), g) == h`` up to rounding.
    """
    if grid is None:
        grid = pir.grid
    elif grid.n_samples != pir.grid.n_samples or not np.array_equal(
        grid.frequencies, pir.grid.frequencies
    ):
        raise GridMismatch("PIR was sampled on a different grid")
    cos, sin = _basis(grid.n_samples, grid.harmonics)
    scale = 2.0 / grid.n_samples
    re = scale * (cos @ pir.values)
    im = scale * (sin @ pir.values)
    return FRF(values=re + 1j * im)


def pir_stats(frf_set: FRFSet, grid: FrequencyGrid) -> PirStats:
    """Pointwise mean and N-1 standard deviation of the set's PIRs."""
    if frf_set.n < 2:
        raise ValueError("need at least two samples for PIR statistics")
    pirs = pir_matrix(frf_set, grid)
    return PirStats(mean=pirs.mean(axis=0), std=pirs.std(axis=0, ddof=1))
