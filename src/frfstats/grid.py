"""Non-uniform frequency grids and their rational arithmetic.

The frequency vectors used in posture-control experiments are not equally
spaced, but they are commensurable: every frequency is an integer multiple
of a common base frequency.  The base frequency (the rational gcd of the
vector) fixes the period of the time-domain signal, and together with the
sample rate it fixes the number of time samples per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._frozen import fix, hold
from .errors import GridError, NonCommensurableFrequencies, NyquistViolation

#: Largest common denominator tried when expressing frequencies as rationals.
MAX_DENOMINATOR = 10**6

#: Relative tolerance for "frequency is an integer multiple of the base".
COMMENSURATE_RTOL = 1e-9
_RTOL_NUM, _RTOL_DEN = COMMENSURATE_RTOL.as_integer_ratio()

#: Most time samples per period a grid may have.  The PIR basis holds
#: 2 * M * n_samples floats and each bootstrap replication gathers
#: N * n_samples, so a grid far past the experiment grids (90 and 440
#: samples) comes from a wrong rate or frequency, not from a real study.
MAX_SAMPLES = 100_000


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """One period of a commensurable frequency vector, uniformly sampled.

    Only the frequencies and the requested sample rate are inputs; every
    other field is derived from them exactly, so the fields agree by
    construction.  The base frequency is the rational gcd of the
    frequencies: they are scaled to integers by the smallest common
    denominator q that fits them all within ``COMMENSURATE_RTOL``, and g
    is the integer gcd of the scaled values, so ``base = g / q``.  The
    sample count is ``round(period * requested_rate)`` and the rate is
    reconciled to ``n_samples * base_frequency``, so the time grid divides
    the period exactly.  ``FrequencyGrid(grid.frequencies,
    grid.sample_rate)`` derives the same grid again.

    Parameters
    ----------
    frequencies : array_like
        The M frequencies in Hz: a non-empty 1-D vector, finite, positive
        and strictly increasing.  Stored as a read-only float copy.
    sample_rate : float, optional
        Requested samples per second; ten times the highest frequency when
        omitted.  After construction it holds the reconciled rate.

    Attributes
    ----------
    base_frequency : float
        Rational gcd of the frequencies (Hz).
    period : float
        1 / base_frequency (seconds); the period of any signal built from
        these frequencies.
    n_samples : int
        Time samples per period, at most `MAX_SAMPLES`.
    harmonics : tuple of int
        The integer multiples k with ``frequencies == k * base_frequency``;
        ``2 * harmonics[-1] < n_samples``.

    Raises
    ------
    GridError
        If the frequencies are not a valid vector, or the grid would have
        fewer than one or more than `MAX_SAMPLES` samples per period.
    NyquistViolation
        If the requested or the reconciled sample rate does not strictly
        exceed twice the highest frequency.
    NonCommensurableFrequencies
        If no common denominator up to `MAX_DENOMINATOR` fits all
        frequencies.
    """

    frequencies: np.ndarray
    sample_rate: float | None = None
    base_frequency: float = field(init=False)
    period: float = field(init=False)
    n_samples: int = field(init=False)
    harmonics: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        freqs = hold(self, "frequencies")
        if freqs.ndim != 1 or freqs.size == 0:
            raise GridError("frequencies must be a non-empty 1-D vector")
        if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0):
            raise GridError("frequencies must be finite and positive")
        if np.any(np.diff(freqs) <= 0):
            raise GridError("frequencies must be strictly increasing")
        f_max = float(freqs[-1])
        requested = 10.0 * f_max if self.sample_rate is None else float(self.sample_rate)
        if not math.isfinite(requested) or requested <= 2.0 * f_max:
            raise NyquistViolation(
                f"sample rate {requested} Hz must strictly exceed "
                f"{2.0 * f_max} Hz (twice the highest frequency)"
            )

        q = _common_denominator(freqs)
        scaled = [_nearest(a * q, b) for a, b in map(float.as_integer_ratio, freqs.tolist())]
        g = math.gcd(*scaled)
        base = Fraction(g, q)
        period = 1 / base
        n_samples = round(period * Fraction(requested))
        # Checked before n_samples * base becomes a float, which can overflow.
        if n_samples < 1:
            raise GridError("grid needs at least one time sample")
        if n_samples > MAX_SAMPLES:
            raise GridError(
                f"grid would have {n_samples} samples per period, more than "
                f"MAX_SAMPLES = {MAX_SAMPLES}; lower the sample rate or check "
                "the frequencies"
            )

        harmonics = tuple(s // g for s in scaled)
        rate = float(n_samples * base)
        if 2 * harmonics[-1] >= n_samples:
            raise NyquistViolation(
                f"sample rate {rate} Hz must strictly exceed "
                f"twice the highest frequency ({2.0 * f_max} Hz)"
            )

        fix(self, sample_rate=rate, base_frequency=float(base), period=float(period),
            n_samples=n_samples, harmonics=harmonics)

    @property
    def m(self) -> int:
        """Number of frequencies."""
        return self.frequencies.size

    @property
    def times(self) -> np.ndarray:
        """Sample instants t_n = n / sample_rate over one period, [0, period)."""
        return np.arange(self.n_samples) / self.sample_rate


def _common_denominator(freqs: np.ndarray) -> int:
    """Smallest integer q <= MAX_DENOMINATOR with every positive freq*q within
    COMMENSURATE_RTOL of an integer, judged exactly.

    Candidates come in chunks of 256 doubling up to 65,536 (memory O(chunk)),
    filtered one frequency at a time in floats: with f = hi + lo split at 32
    bits, q*hi and q*lo are exact for q < 2**20, so the residual carries one
    rounding, far inside the filter's slack.  Survivors are checked exactly."""
    ratios = [f.as_integer_ratio() for f in freqs.tolist()]
    m, e = np.frexp(freqs)
    heads = np.ldexp(np.floor(np.ldexp(m, 32)), e - 32)
    start, size = 1, 1 << 8
    while start <= MAX_DENOMINATOR:
        q = np.arange(start, min(start + size, MAX_DENOMINATOR + 1), dtype=float)
        for f, hi in zip(freqs, heads):
            p, t = q * hi, q * (f - hi)
            d = p - np.rint(p + t) + t
            q = q[np.abs(d) <= COMMENSURATE_RTOL * (1 + 1e-12) * f * q]
        for c in q.astype(int).tolist():
            if all(_fits(a * c, b) for a, b in ratios):
                return c
        start, size = start + size, min(2 * size, 1 << 16)
    raise NonCommensurableFrequencies(
        f"no common denominator <= {MAX_DENOMINATOR} reconciles the "
        "frequencies as rational multiples of a base frequency"
    )


def _nearest(num: int, den: int) -> int:
    """The integer nearest num / den, exactly (a half rounds up)."""
    return (2 * num + den) // (2 * den)


def _fits(num: int, den: int) -> bool:
    """Whether num / den is within COMMENSURATE_RTOL of its nearest integer."""
    return abs(num - _nearest(num, den) * den) * _RTOL_DEN <= _RTOL_NUM * num


def derive_grid(frequencies, sample_rate: float | None = None) -> FrequencyGrid:
    """The :class:`FrequencyGrid` of `frequencies` at the requested
    `sample_rate`; the same derivation, under the name the loaders and the
    CLI call.  Raises what the constructor raises."""
    return FrequencyGrid(frequencies, sample_rate)
