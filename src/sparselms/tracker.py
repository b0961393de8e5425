"""Online sparsity estimation from exponentially weighted error tracking.

The estimator's own update direction b(n) = e*(n) x(n) satisfies
E[b] = -(w(n) - w) under the unit-magnitude regressor convention, so an
exponentially weighted average of -b tracks the current estimation error.
Subtracting a scaled copy of that average from the estimate gives a corrected
vector whose magnitudes are compared against the occupancy threshold q*; the
number of coefficients passing is the sparsity estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_C128 = np.dtype(complex)


@dataclass(frozen=True)
class TrackerParams:
    lam: float = 0.99     # forgetting factor, window mass 1/(1-lam)
    xi: float = 1.0       # error-correction scale
    q_star: float = 0.05  # occupancy magnitude threshold
    use_support: bool = False  # carry the passing set into the next update

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        # NaN fails both comparisons
        if not 0.0 <= self.xi < math.inf:
            raise ValueError(f"xi must be finite and nonnegative, got {self.xi}")
        if not 0.0 < self.q_star < math.inf:
            raise ValueError(f"q_star must be finite and positive, got {self.q_star}")


@dataclass
class TrackerState:
    """err is complex128 (native byte order), and read-only to callers: an
    update writes it through a private view, and an in-place write from
    outside raises.  Assigning a new array is the way in; each function here
    that reads or writes err takes it over first, and raises ValueError if it
    is not complex128.

    An update passes 1 - 1/kappa and 1/kappa as 0-d complex128 arrays, which
    give a Python float's bits against complex128 arrays without converting it
    on every call; a b of another dtype is widened exactly."""

    err: np.ndarray
    kappa: float
    params: TrackerParams
    # work array for (1/kappa) b, so an update allocates nothing; a caller
    # may form b in it (see ``tracker_update``)
    work: np.ndarray = field(init=False, repr=False, compare=False)
    # the array err was taken over as, and its writable view
    _ro: np.ndarray = field(init=False, repr=False, compare=False)
    _rw: np.ndarray = field(init=False, repr=False, compare=False)
    # the 0-d operands 1 - 1/kappa and 1/kappa
    _keep: np.ndarray = field(init=False, repr=False, compare=False)
    _inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._take()
        self.work = np.empty_like(self.err)
        self._keep, self._inv = np.empty((), dtype=complex), np.empty((), dtype=complex)

    def _take(self):
        if self.err.dtype != _C128:
            raise ValueError(f"TrackerState.err has dtype {self.err.dtype}, expected complex128")
        self._ro, self._rw = self.err, self.err.view()
        self.err.flags.writeable = False


def _own_err(state: TrackerState) -> np.ndarray:
    """err's writable view; a newly assigned err is taken over first."""
    if state.err is not state._ro:
        state._take()
    return state._rw


def make_tracker(params: TrackerParams, n_dim: int) -> TrackerState:
    """Fresh state: err(0) = 0, kappa_0 = 0."""
    return TrackerState(err=np.zeros(n_dim, dtype=complex), kappa=0.0, params=params)


def clamp_budget(count: int, n: int) -> int:
    """A sparsity count clamped to the valid budget range [1, N]."""
    return min(max(count, 1), n)


def tracker_update(state: TrackerState, b: np.ndarray) -> TrackerState:
    """kappa <- lam*kappa + 1;  err <- (1 - 1/kappa)*err - (1/kappa)*b.

    b may be ``state.work``, which is then scaled in place."""
    if b.shape != state.err.shape:
        raise ValueError(f"direction has shape {b.shape}, expected {state.err.shape}")
    err = _own_err(state)
    state.kappa = state.params.lam * state.kappa + 1.0
    inv = 1.0 / state.kappa
    state._keep[()], state._inv[()] = 1.0 - inv, inv
    err *= state._keep
    err -= np.multiply(b, state._inv, out=state.work)
    return state


def replay_updates(state: TrackerState, kappa: float, updates) -> None:
    """``tracker_update(state, e* x)`` for each (x, e*) of ``updates`` in
    order, from kappa ``kappa``: the same operations on the same operands,
    with b = e* x formed in the work array."""
    err = _own_err(state)
    work = state.work
    lam = state.params.lam
    e0, keep0, inv0 = np.empty((), dtype=complex), state._keep, state._inv
    for x, e_conj in updates:
        kappa = lam * kappa + 1.0
        inv = 1.0 / kappa
        e0[()], keep0[()], inv0[()] = e_conj, 1.0 - inv, inv
        np.multiply(e0, x, out=work)
        err *= keep0
        err -= np.multiply(work, inv0, out=work)
    state.kappa = kappa


def corrected_estimate(state: TrackerState, w: np.ndarray) -> np.ndarray:
    """w' = w - xi * err."""
    if w.shape != state.err.shape:
        raise ValueError(f"estimate has shape {w.shape}, expected {state.err.shape}")
    _own_err(state)
    return w - state.params.xi * state.err


def occupancy_mask(state: TrackerState, w: np.ndarray) -> np.ndarray:
    """Boolean mask of coefficients passing the occupancy test |w'| > q*."""
    return np.abs(corrected_estimate(state, w)) > state.params.q_star


def estimate_sparsity(state: TrackerState, w: np.ndarray) -> int:
    """Count of coefficients passing the occupancy test, clamped to [1, N]."""
    return clamp_budget(int(np.count_nonzero(occupancy_mask(state, w))), w.size)


def support_count(state: TrackerState, w: np.ndarray, kept: np.ndarray) -> tuple[int, float]:
    """The unclamped passing count over the positions ``kept`` alone, and the
    slack: the smallest distance of a computed |w'_k| there from q*.

    Each |w'_k| is computed with the elementwise operations of
    ``occupancy_mask``, so where no entry off ``kept`` can pass, the count is
    the full one.  The slack is NaN if an entry is NaN.
    """
    _own_err(state)
    mag = np.abs(w[kept] - state.params.xi * state.err[kept])
    q_star = state.params.q_star
    count = int(np.count_nonzero(mag > q_star))
    mag -= q_star
    np.abs(mag, out=mag)
    return count, float(mag.min(initial=math.inf))
