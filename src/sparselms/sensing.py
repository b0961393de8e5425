"""Partial inverse-DFT sensing model.

Measurements are scalar time samples of a length-N window, observed at M
randomly chosen positions.  Each observed position n pairs the noisy sample
y(n) with the regressor row x(n) whose entries are the N-th roots of unity,
so that the spectrum estimate w predicts y(n) as w^H x(n).

The regressor rows carry unit-magnitude entries (no 1/sqrt(N) factor).  Under
uniform position sampling this makes E[x x^H] the exact N x N identity, which
the sparsity tracker relies on.

The sensed signal is real, so its spectrum is conjugate-symmetric,
w_{N-k} = conj(w_k), and the library holds it on bins 0..N/2 alone
(``half_size(n)`` = N//2 + 1 entries, as a real FFT does).  Bin 0 and, for
even N, bin N/2 are their own conjugates and stand for one bin of the full
spectrum; every other stored bin stands for the pair {k, N - k}
(``paired_bins``).  ``fourier_rows`` holds the rows on those bins, which
``make_stream`` yields, and ``regressor_row`` gives full rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np


class StreamExhausted(RuntimeError):
    """Raised when the signal source ends before the stream is complete."""


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class RepeatedPass:
    """Collect one window of M samples and replay it ``passes`` times."""

    passes: int

    def __post_init__(self):
        _check_count("passes", self.passes)

    @property
    def plan(self) -> tuple[int, int]:
        """(windows drawn, replays of each window)."""
        return 1, self.passes


@dataclass(frozen=True)
class Windowed:
    """Draw M fresh samples (fresh positions, fresh noise) per window."""

    windows: int

    def __post_init__(self):
        _check_count("windows", self.windows)

    @property
    def plan(self) -> tuple[int, int]:
        """(windows drawn, replays of each window)."""
        return self.windows, 1


@dataclass(frozen=True)
class SensingConfig:
    n: int
    m: int
    mode: RepeatedPass | Windowed
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"window length must be positive, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= M <= N, got M={self.m}, N={self.n}")
        if not isinstance(self.mode, (RepeatedPass, Windowed)):
            raise ValueError(f"unknown stream mode: {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def total_samples(self) -> int:
        windows, replays = self.mode.plan
        return windows * replays * self.m

    @property
    def n_windows(self) -> int:
        return self.mode.plan[0]


@dataclass(slots=True)
class MeasurementSample:
    """One observation: regressor row x and noisy scalar y.

    ``make_stream`` gives x as a row of the ``fourier_rows`` table (bins
    0..N/2), and y as a Python float.  An estimator takes x as unit-magnitude
    only while it is a view of the table ``unit_rows`` gave that estimator.
    """

    x: np.ndarray
    y: float


# bound on the computed |root|^2 the roots of a table must meet for unit_rows
UNIT_SQ_MAG_BOUND = 1.0 + 2.0 * np.finfo(float).eps

# rows of the fourier_rows table filled per index block
_ROW_BLOCK = 16


def half_size(n: int) -> int:
    """Bins 0..N/2 of a length-N spectrum: the entries the library stores."""
    return n // 2 + 1


def paired_bins(n: int, kept: np.ndarray | None = None) -> slice:
    """The positions, in bins 0..N/2 or in the sorted stored bins ``kept``,
    of the bins that stand for a pair {k, N - k} and count twice; bin 0 and,
    for even N, bin N/2 are their own mirrors and count once."""
    if kept is None:
        return slice(1, (n + 1) // 2)
    lo = int(kept.size > 0 and kept.item(0) == 0)
    hi = kept.size - int(kept.size > 0 and n % 2 == 0 and kept.item(-1) == n // 2)
    return slice(lo, hi)


@lru_cache(maxsize=8)
def fourier_rows(n: int) -> np.ndarray:
    """All N regressor rows on bins 0..N/2, an (N, N//2 + 1) read-only matrix.

    F[t, k] = x(t)_k is looked up from the single table of N-th roots of
    unity, roots[(k t) mod N], so that equal angles give bit-identical values.
    """
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    h = half_size(n)
    rows = np.empty((n, h), dtype=complex)
    # row blocks of (t k) mod n, never the two N x h int64 temporaries of a
    # one-shot outer product; int32 while (n - 1)^2 fits
    k = np.arange(n, dtype=np.int32 if (n - 1) ** 2 <= np.iinfo(np.int32).max else np.int64)
    for start in range(0, n, _ROW_BLOCK):
        idx = np.multiply.outer(k[start:start + _ROW_BLOCK], k[:h])
        idx %= n
        np.take(roots, idx, out=rows[start:start + _ROW_BLOCK])
    rows.flags.writeable = False
    return rows


def unit_rows(n: int) -> np.ndarray | None:
    """``fourier_rows(n)`` when every computed |x_k|^2 of its rows is at most
    ``UNIT_SQ_MAG_BOUND``, else None.

    Every entry is one of the N roots, and column 1 % h holds them all, so
    the check reads that column alone.
    """
    rows = fourier_rows(n)
    x = rows[:, 1 % rows.shape[1]]
    return rows if (x.real * x.real + x.imag * x.imag).max() <= UNIT_SQ_MAG_BOUND else None


def full_count(n: int, flags: np.ndarray, kept: np.ndarray | None = None) -> int:
    """The number of bins of the length-N spectrum that ``flags`` marks.

    ``flags`` marks stored bins: every bin when ``kept`` is None, else the
    sorted positions ``kept``; ``paired_bins`` says which count twice.
    """
    paired = paired_bins(n, kept)
    count = 2 * int(np.count_nonzero(flags))
    if paired.start:  # bin 0 counts once
        count -= bool(flags[0])
    if paired.stop < flags.size:  # and so does bin N/2 of an even N
        count -= bool(flags[-1])
    return count


def regressor_row(n: int, t: int) -> np.ndarray:
    """The full regressor for time index t, x_k = exp(-2j*pi*k*t/n) for
    k = 0..N-1: root (k t) mod N of ``fourier_rows``, whose row t holds its
    bins 0..N/2 bit for bit.  A t that is not an integer in [0, N), a bool
    included, raises ValueError naming t."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"time index must be an integer, got {t!r}")
    if not 0 <= t < n:
        raise ValueError(f"time index {t} outside [0, {n})")
    # column 1 % h of the table holds root j at row j
    return fourier_rows(n)[np.arange(n) * t % n, 1 % half_size(n)]


def sample_indices(config: SensingConfig, window: int) -> np.ndarray:
    """M unique sorted positions in [0, N) for one window, deterministic
    given (config.seed, window)."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, window]))
    idx = rng.choice(config.n, size=config.m, replace=False)
    idx.sort()
    return idx


def _noise_rng(config: SensingConfig, window: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, window, 1]))


def make_stream(
    config: SensingConfig,
    windows: Iterable[np.ndarray],
    noise_std: float = 0.0,
) -> Iterator[MeasurementSample]:
    """Turn latent signal windows into an ordered measurement stream.

    ``windows`` yields length-N real vectors (the noiseless signal, one per
    window).  Each drawn window's M noisy samples are emitted in
    ascending-position order and replayed as the mode's plan says, noise
    included.  RepeatedPass draws one window and replays it ``passes`` times:
    the device measured once, the estimator sees the measurements repeatedly.
    Windowed draws ``windows`` windows with fresh positions and fresh noise.
    A replay yields the same ``MeasurementSample`` objects again.

    Whatever depends on the sample alone is done here, once per window: y
    becomes a Python float, and x is its ``fourier_rows`` row.  A
    ``noise_std`` that is negative, NaN or infinite raises ValueError at the
    first sample, and a complex window whose imaginary part is not zero (NaN
    included) raises ValueError naming the window.
    """
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    # one view per row, made once per stream: a list lookup costs less than
    # indexing the table for each sample of each window
    views = list(fourier_rows(config.n))
    source = iter(windows)
    n_windows, replays = config.mode.plan
    for w in range(n_windows):
        try:
            z = np.asarray(next(source))
        except StopIteration:
            raise StreamExhausted(
                f"signal source ended after {w} windows; {n_windows} required"
            ) from None
        if np.iscomplexobj(z) and (z.imag != 0).any():
            raise ValueError(f"window {w} has a nonzero imaginary part; a real signal's samples are real")
        z = np.asarray(z.real, dtype=float)
        if z.shape != (config.n,):
            raise ValueError(f"window {w} has shape {z.shape}, expected ({config.n},)")
        idx = sample_indices(config, w)
        y = z[idx]
        if noise_std > 0.0:
            y = y + _noise_rng(config, w).normal(0.0, noise_std, size=config.m)
        samples = [MeasurementSample(views[t], v) for t, v in zip(idx.tolist(), y.tolist())]
        for _ in range(replays):
            yield from samples
