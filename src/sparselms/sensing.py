"""Partial inverse-DFT sensing model.

Measurements are scalar time samples of a length-N window, observed at M
randomly chosen positions.  Each observed position n pairs the noisy sample
y(n) with the regressor row x(n) whose entries are the N-th roots of unity,
so that the spectrum estimate w predicts y(n) as w^H x(n).

The regressor rows carry unit-magnitude entries (no 1/sqrt(N) factor).  Under
uniform position sampling this makes E[x x^H] the exact N x N identity, which
the sparsity tracker relies on.
"""

from __future__ import annotations

import weakref
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

    ``t``, when set, is the index of row x in its ``fourier_rows`` table.
    ``make_stream`` sets it, and gives y and t as Python numbers.  Nothing in
    the package reads t yet: it is kept for a stream that yields positions
    instead of rows.

    ``unit`` is the proof that every computed |x_k|^2 is at most
    ``UNIT_SQ_MAG_BOUND``.  It is computed, never passed: a sample built here
    asks ``unit_magnitude(x)`` each time it is read, and ``make_stream``'s
    samples, whose rows it took from a registered table, carry it as True.
    A stream's samples are shared by its replays and are read-only, so their
    x stays the row the proof was made for.
    """

    x: np.ndarray
    y: float
    t: int | None = None

    @property
    def unit(self) -> bool:
        return unit_magnitude(self.x)


class _TableRowSample(MeasurementSample):
    """A ``make_stream`` sample: x is a row view of a registered table.  It
    refuses assignment, so ``make_stream`` builds a plain sample and then
    sets its class."""

    __slots__ = ()
    unit = True

    def __setattr__(self, name, value):
        raise AttributeError(f"a stream sample is read-only; cannot set {name}")


# the fourier_rows tables whose roots passed the magnitude check, by id
_UNIT_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# bound on the computed |root|^2 a table must meet to be registered
UNIT_SQ_MAG_BOUND = 1.0 + 2.0 * np.finfo(float).eps

# rows of the fourier_rows table filled per index block
_ROW_BLOCK = 16


@lru_cache(maxsize=8)
def fourier_rows(n: int) -> np.ndarray:
    """All N regressor rows as an N x N read-only matrix, F[t, k] = x(t)_k.

    Entries are looked up from the single table of N-th roots of unity so
    that equal angles produce bit-identical values.  When every computed
    |root|^2 is at most ``UNIT_SQ_MAG_BOUND`` the table is registered, and
    ``unit_magnitude`` recognises its rows.
    """
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    rows = np.empty((n, n), dtype=complex)
    # row blocks of (t k) mod n, never the two N x N int64 temporaries of a
    # one-shot outer product; int32 while (n - 1)^2 fits
    k = np.arange(n, dtype=np.int32 if (n - 1) ** 2 <= np.iinfo(np.int32).max else np.int64)
    for start in range(0, n, _ROW_BLOCK):
        idx = np.multiply.outer(k[start:start + _ROW_BLOCK], k)
        idx %= n
        np.take(roots, idx, out=rows[start:start + _ROW_BLOCK])
    rows.flags.writeable = False
    if (roots.real * roots.real + roots.imag * roots.imag).max() <= UNIT_SQ_MAG_BOUND:
        _UNIT_TABLES[id(rows)] = rows
    return rows


def _registered(table: np.ndarray) -> bool:
    return _UNIT_TABLES.get(id(table)) is table


def unit_magnitude(x: np.ndarray) -> bool:
    """True when x is a view into a registered ``fourier_rows`` table, so every
    computed |x_k|^2 is at most ``UNIT_SQ_MAG_BOUND``."""
    base = x.base
    return base is not None and _registered(base)


def regressor_row(n: int, t: int) -> np.ndarray:
    """Regressor for time index t: x_k = exp(-2j*pi*k*t/n), unit magnitude."""
    if not 0 <= t < n:
        raise ValueError(f"time index {t} outside [0, {n})")
    return fourier_rows(n)[t]


def sample_indices(config: SensingConfig, window: int, rng=None) -> np.ndarray:
    """M unique sorted positions in [0, N) for one window.

    Deterministic given (config.seed, window) when no rng is supplied.
    """
    if rng is None:
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

    Whatever depends on the sample alone is done here, once per window: y and
    t become Python numbers, and the rows' unit-magnitude proof is read once
    for the whole table.
    """
    rows = fourier_rows(config.n)
    unit = _registered(rows)
    # one view per row, made once per stream: a list lookup costs less than
    # indexing the table for each sample of each window
    views = list(rows)
    source = iter(windows)
    n_windows, replays = config.mode.plan
    for w in range(n_windows):
        try:
            z = np.asarray(next(source), dtype=float)
        except StopIteration:
            raise StreamExhausted(
                f"signal source ended after {w} windows; {n_windows} required"
            ) from None
        if z.shape != (config.n,):
            raise ValueError(f"window {w} has shape {z.shape}, expected ({config.n},)")
        idx = sample_indices(config, w)
        y = z[idx]
        if noise_std > 0.0:
            y = y + _noise_rng(config, w).normal(0.0, noise_std, size=config.m)
        samples = [MeasurementSample(views[t], v, t) for t, v in zip(idx.tolist(), y.tolist())]
        if unit:
            for smp in samples:
                smp.__class__ = _TableRowSample
        for _ in range(replays):
            yield from samples
