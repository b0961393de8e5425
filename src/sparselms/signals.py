"""Multisine test signals, their exact sparse spectra, and calibrated noise.

Frequencies live on the DFT grid (bin m means m cycles per window), which is
what makes the ground-truth spectrum exactly 2k-sparse.  Amplitude-A sine at
bin m contributes the two coefficients w[m] = -jA/2 and w[N-m] = +jA/2 under
the sensing module's regressor convention, so q, the smallest nonzero
magnitude, equals min(A)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class SignalSpec:
    n: int
    sines: int
    bins: tuple[int, ...] | None = None
    amps: tuple[float, ...] | None = None
    snr_db: float = math.inf

    def __post_init__(self):
        if self.sines < 1:
            raise ValueError("need at least one sine")
        _check_snr_db(self.snr_db)
        top = self.n // 2 - 1  # the highest bin a sine may take
        if self.sines > top:
            raise ValueError(
                f"cannot place {self.sines} sines on distinct bins in [1, {top}] at n={self.n}"
            )
        # the one check of the bins: it runs when a spec is built and on every
        # dataclasses.replace, so multisine and true_spectrum trust them
        if self.bins is not None:
            if len(self.bins) != self.sines:
                raise ValueError(f"expected {self.sines} bins, got {len(self.bins)}")
            if len(set(self.bins)) != len(self.bins):
                raise ValueError("bins must be distinct")
            for m in self.bins:
                if not 1 <= m <= top:
                    raise ValueError(f"bin {m} outside valid range [1, {top}]")
        if self.amps is not None:
            if len(self.amps) != self.sines:
                raise ValueError("one amplitude per sine required")
            if any(a <= 0 for a in self.amps):
                raise ValueError("amplitudes must be positive")
        if self.snr_db < math.inf:
            noise_std(signal_power(self), self.snr_db)

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return self.amps if self.amps is not None else (1.0,) * self.sines


def _check_snr_db(snr_db: float) -> None:
    # +inf means no noise, -inf infinite noise; NaN fails the comparison
    if not -math.inf < snr_db <= math.inf:
        raise ValueError(f"snr_db must be a number or inf, got {snr_db}")


def random_bins(n: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """k distinct bins drawn uniformly from {1, ..., N/2 - 1}."""
    hi = n // 2
    if k > hi - 1:
        raise ValueError(f"cannot place {k} distinct bins in [1, {hi - 1}]")
    return tuple(int(b) for b in rng.choice(np.arange(1, hi), size=k, replace=False))


def resolve_bins(spec: SignalSpec, rng: np.random.Generator) -> SignalSpec:
    """Fill in random bins when the spec leaves them unset."""
    if spec.bins is None:
        return replace(spec, bins=random_bins(spec.n, spec.sines, rng))
    return spec


def multisine(spec: SignalSpec) -> np.ndarray:
    """Noiseless window: z_t = sum_i A_i * sin(2*pi*m_i*t/N)."""
    if spec.bins is None:
        raise ValueError("spec has unresolved bins")
    t = np.arange(spec.n)
    z = np.zeros(spec.n)
    for m, a in zip(spec.bins, spec.amplitudes):
        z += a * np.sin(2.0 * np.pi * m * t / spec.n)
    return z


def true_spectrum(spec: SignalSpec) -> np.ndarray:
    """Exact spectrum of the multisine: 2k nonzeros at bins {m_i, N - m_i}."""
    if spec.bins is None:
        raise ValueError("spec has unresolved bins")
    w = np.zeros(spec.n, dtype=complex)
    for m, a in zip(spec.bins, spec.amplitudes):
        w[m] = -0.5j * a
        w[spec.n - m] = 0.5j * a
    return w


def signal_power(spec: SignalSpec) -> float:
    """Analytic mean power sum_i A_i^2 / 2 (distinct grid bins are orthogonal)."""
    return sum(a * a for a in spec.amplitudes) / 2.0


def noise_std(power: float, snr_db: float) -> float:
    """Noise standard deviation giving the requested SNR for a given power;
    +inf dB gives 0.  -inf, NaN and a finite SNR whose std is not finite and
    positive (beyond about +-3080 dB at unit power) raise ValueError."""
    if not power > 0:
        raise ValueError("signal power must be positive")
    _check_snr_db(snr_db)
    if snr_db == math.inf:
        return 0.0
    try:
        std = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) overflows or underflows to 0
        std = math.nan
    if not 0.0 < std < math.inf:
        raise ValueError(
            f"snr_db must give a finite, positive noise std at signal power {power}, got {snr_db}"
        )
    return std
