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
        # +inf means no noise; NaN fails the comparison
        if not -math.inf < self.snr_db <= math.inf:
            raise ValueError(f"snr_db must be a number or inf, got {self.snr_db}")
        if self.sines > self.n // 2 - 1:
            raise ValueError(
                f"cannot place {self.sines} sines on distinct bins in [1, {self.n // 2 - 1}]"
                f" at n={self.n}"
            )
        if self.bins is not None:
            _check_bins(self.n, self.sines, self.bins)
        if self.amps is not None:
            if len(self.amps) != self.sines:
                raise ValueError("one amplitude per sine required")
            if any(a <= 0 for a in self.amps):
                raise ValueError("amplitudes must be positive")

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return self.amps if self.amps is not None else (1.0,) * self.sines


def _check_bins(n: int, k: int, bins: tuple[int, ...]) -> None:
    if len(bins) != k:
        raise ValueError(f"expected {k} bins, got {len(bins)}")
    if len(set(bins)) != len(bins):
        raise ValueError("bins must be distinct")
    hi = n // 2
    for m in bins:
        if not 1 <= m <= hi - 1:
            raise ValueError(f"bin {m} outside valid range [1, {hi - 1}]")


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
    _check_bins(spec.n, spec.sines, spec.bins)
    t = np.arange(spec.n)
    z = np.zeros(spec.n)
    for m, a in zip(spec.bins, spec.amplitudes):
        z += a * np.sin(2.0 * np.pi * m * t / spec.n)
    return z


def true_spectrum(spec: SignalSpec) -> np.ndarray:
    """Exact spectrum of the multisine: 2k nonzeros at bins {m_i, N - m_i}."""
    if spec.bins is None:
        raise ValueError("spec has unresolved bins")
    _check_bins(spec.n, spec.sines, spec.bins)
    w = np.zeros(spec.n, dtype=complex)
    for m, a in zip(spec.bins, spec.amplitudes):
        w[m] = -0.5j * a
        w[spec.n - m] = 0.5j * a
    return w


def signal_power(spec: SignalSpec) -> float:
    """Analytic mean power sum_i A_i^2 / 2 (distinct grid bins are orthogonal)."""
    return sum(a * a for a in spec.amplitudes) / 2.0


def noise_std(power: float, snr_db: float) -> float:
    """Noise standard deviation giving the requested SNR for a given power."""
    if power <= 0:
        raise ValueError("signal power must be positive")
    if math.isinf(snr_db):
        return 0.0
    return math.sqrt(power / 10.0 ** (snr_db / 10.0))


def add_noise(values, snr_db: float, power: float, rng: np.random.Generator):
    """Add white Gaussian noise with variance power / 10^(SNR/10)."""
    values = np.asarray(values, dtype=float)
    sigma = noise_std(power, snr_db)
    if sigma == 0.0:
        return values.copy()
    return values + rng.normal(0.0, sigma, size=values.shape)
