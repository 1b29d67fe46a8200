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

from .errors import GridError, NonCommensurableFrequencies, NyquistViolation

#: Largest common denominator tried when expressing frequencies as rationals.
MAX_DENOMINATOR = 10**6

#: Relative tolerance for "frequency is an integer multiple of the base".
COMMENSURATE_RTOL = 1e-9

#: Most time samples per period a grid may have.  The PIR basis holds
#: 2 * M * n_samples floats and each bootstrap replication gathers
#: N * n_samples, so a grid far past the experiment grids (90 and 440
#: samples) comes from a wrong rate or frequency, not from a real study.
MAX_SAMPLES = 100_000


def _check_sample_count(n_samples: int) -> None:
    """GridError unless 1 <= n_samples <= MAX_SAMPLES."""
    if n_samples < 1:
        raise GridError("grid needs at least one time sample")
    if n_samples > MAX_SAMPLES:
        raise GridError(
            f"grid would have {n_samples} samples per period, more than "
            f"MAX_SAMPLES = {MAX_SAMPLES}; lower the sample rate or check "
            "the frequencies"
        )


def _checked_frequencies(frequencies) -> np.ndarray:
    """Float vector of the frequencies; GridError unless it is 1-D,
    non-empty, finite, positive and strictly increasing."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise GridError("frequencies must be a non-empty 1-D vector")
    if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0):
        raise GridError("frequencies must be finite and positive")
    if np.any(np.diff(freqs) <= 0):
        raise GridError("frequencies must be strictly increasing")
    return freqs


@dataclass(frozen=True)
class FrequencyGrid:
    """A strictly increasing set of commensurable frequencies.

    Attributes
    ----------
    frequencies : ndarray
        The M frequencies in Hz, strictly increasing, all positive.
    base_frequency : float
        Rational gcd of the frequencies (Hz).
    period : float
        1 / base_frequency (seconds); the period of any signal built from
        these frequencies.
    sample_rate : float
        Samples per second.  Reconciled so that
        ``n_samples * base_frequency == sample_rate``.
    n_samples : int
        Time samples per period, ``round(period * sample_rate)``.
    """

    frequencies: np.ndarray
    base_frequency: float
    period: float
    sample_rate: float
    n_samples: int
    #: integer multiples k with frequencies == harmonics * base_frequency
    harmonics: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        freqs = _checked_frequencies(self.frequencies)
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        if self.base_frequency <= 0:
            raise GridError("base frequency must be positive")
        _check_sample_count(self.n_samples)

        mult = freqs / self.base_frequency
        harmonics = np.rint(mult).astype(int)
        if np.any(harmonics < 1) or np.any(
            np.abs(freqs - harmonics * self.base_frequency)
            > COMMENSURATE_RTOL * freqs
        ):
            raise NonCommensurableFrequencies(
                "frequencies are not integer multiples of "
                f"{self.base_frequency} Hz within tolerance"
            )
        object.__setattr__(self, "harmonics", tuple(int(k) for k in harmonics))

        if self.sample_rate <= 2.0 * freqs[-1]:
            raise NyquistViolation(
                f"sample rate {self.sample_rate} Hz must strictly exceed "
                f"twice the highest frequency ({2.0 * freqs[-1]} Hz)"
            )
        if 2 * self.harmonics[-1] >= self.n_samples:
            raise NyquistViolation(
                "number of samples per period is too small for the highest "
                "frequency"
            )
        if abs(self.period * self.base_frequency - 1.0) > COMMENSURATE_RTOL:
            raise GridError("period must equal 1 / base_frequency")
        if (
            abs(self.n_samples * self.base_frequency - self.sample_rate)
            > COMMENSURATE_RTOL * self.sample_rate
        ):
            raise GridError(
                "sample rate must equal n_samples * base_frequency; "
                "build grids through derive_grid"
            )

    @property
    def m(self) -> int:
        """Number of frequencies."""
        return self.frequencies.size

    @property
    def time_step(self) -> float:
        """Seconds between consecutive samples."""
        return 1.0 / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        """Sample instants t_n = n / sample_rate over one period, [0, period)."""
        return np.arange(self.n_samples) / self.sample_rate


def _common_denominator(freqs: np.ndarray) -> int:
    """Smallest integer q <= MAX_DENOMINATOR with every freq*q near an integer."""
    fracs = [Fraction(float(f)).limit_denominator(MAX_DENOMINATOR) for f in freqs]
    if all(
        f > 0 and abs(float(fr) - f) <= COMMENSURATE_RTOL * f
        for f, fr in zip(freqs, fracs)
    ):
        q = math.lcm(*(fr.denominator for fr in fracs))
        if q <= MAX_DENOMINATOR:
            return q
    # Exhaustive scan; only reached when the per-frequency rationals do not
    # share a small denominator.  Each chunk of candidates is filtered one
    # frequency at a time, so memory stays O(chunk) for any number of
    # frequencies.
    chunk = 1 << 16
    for start in range(1, MAX_DENOMINATOR + 1, chunk):
        q = np.arange(start, min(start + chunk, MAX_DENOMINATOR + 1), dtype=float)
        for f in freqs:
            scaled = q * f
            nearest = np.rint(scaled)
            ok = np.abs(scaled - nearest) <= COMMENSURATE_RTOL * scaled
            q = q[ok & (nearest >= 1.0)]
        if q.size:
            return int(q[0])
    raise NonCommensurableFrequencies(
        f"no common denominator <= {MAX_DENOMINATOR} reconciles the "
        "frequencies as rational multiples of a base frequency"
    )


def derive_grid(frequencies, sample_rate: float | None = None) -> FrequencyGrid:
    """Build a :class:`FrequencyGrid` from a frequency vector.

    The base frequency is the rational gcd of the frequencies, found by
    scaling them to integers with a common denominator and taking the
    integer gcd.  The period is the inverse of the base frequency.  When
    `sample_rate` is omitted it defaults to ten times the highest
    frequency.  The sample count per period is ``round(period *
    sample_rate)`` and the stored sample rate is reconciled to
    ``n_samples * base_frequency`` so the time grid divides the period
    exactly.

    Raises
    ------
    NonCommensurableFrequencies
        If no common denominator up to ``10**6`` fits all frequencies.
    NyquistViolation
        If the (reconciled) sample rate does not strictly exceed twice the
        highest frequency.
    GridError
        If the grid would have more than `MAX_SAMPLES` samples per period.
    """
    freqs = _checked_frequencies(frequencies)
    f_max = float(freqs[-1])
    requested = 10.0 * f_max if sample_rate is None else float(sample_rate)
    if not math.isfinite(requested) or requested <= 2.0 * f_max:
        raise NyquistViolation(
            f"sample rate {requested} Hz must strictly exceed "
            f"{2.0 * f_max} Hz (twice the highest frequency)"
        )

    q = _common_denominator(freqs)
    scaled = [round(float(f) * q) for f in freqs]
    g = math.gcd(*scaled)
    base = Fraction(g, q)
    period = 1 / base
    n_samples = round(period * Fraction(requested))
    _check_sample_count(n_samples)
    rate = n_samples * base

    if float(rate) <= 2.0 * f_max:
        raise NyquistViolation(
            f"reconciled sample rate {float(rate)} Hz does not strictly "
            f"exceed {2.0 * f_max} Hz"
        )
    return FrequencyGrid(
        frequencies=freqs,
        base_frequency=float(base),
        period=float(period),
        sample_rate=float(rate),
        n_samples=int(n_samples),
    )
