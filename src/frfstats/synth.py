"""Synthetic FRF sets for calibration studies and demos.

Each sample is ``gain_factor * mean_frf`` plus independent complex
Gaussian noise with standard deviation ``noise_std`` in the real and
imaginary parts of every component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import hold
from .grid import FrequencyGrid
from .pir import FRFSet


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    mean_frf: np.ndarray
    noise_std: float
    n: int
    gain_factor: float = 1.0

    def __post_init__(self) -> None:
        mean = hold(self, "mean_frf", complex)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean_frf must be a non-empty vector")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean_frf must be finite")
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.gain_factor > 0.0:
            raise ValueError("gain_factor must be positive")


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> FRFSet:
    """Draw ``spec.n`` noisy copies of the scaled mean FRF."""
    rng = np.random.default_rng(seed)
    shape = (spec.n, spec.mean_frf.size)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FRFSet(spec.gain_factor * spec.mean_frf + spec.noise_std * noise)


def lowpass_mean_frf(grid: FrequencyGrid) -> np.ndarray:
    """First-order low-pass response with the corner at the median frequency."""
    corner = float(np.median(grid.frequencies))
    return np.asarray(1.0 / (1.0 + 1j * grid.frequencies / corner))
