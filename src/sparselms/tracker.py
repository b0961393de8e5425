"""Online sparsity estimation from exponentially weighted error tracking.

The estimator's own update direction b(n) = e*(n) x(n) satisfies
E[b] = -(w(n) - w) under the unit-magnitude regressor convention, so an
exponentially weighted average of -b tracks the current estimation error.
Subtracting a scaled copy of that average from the estimate gives a corrected
vector whose magnitudes are compared against the occupancy threshold q*; the
number of coefficients passing is the sparsity estimate.

The state also carries B, an upper bound on max_k |err_k| that an update
advances in O(1).  While xi B is provably below q*, no coefficient where the
estimate is exactly zero can pass, so a caller whose estimate is zero off a
known set may count over that set alone (``support_quiet``, ``support_count``).
Each update is applied to all of err at once, in O(N) (``tracker_update``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# relative margin of the bound B and of the off-support test, far above the few
# ulps of rounding it covers (u = 2^-53); _TINY covers the absolute error of a
# product below the normal range
BOUND_MARGIN = 1e-12
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TrackerParams:
    lam: float = 0.99     # forgetting factor, window mass 1/(1-lam)
    xi: float = 1.0       # error-correction scale
    q_star: float = 0.05  # occupancy magnitude threshold
    use_support: bool = False  # carry the passing set into the next update

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        if self.xi < 0.0:
            raise ValueError("xi must be nonnegative")
        if self.q_star <= 0.0:
            raise ValueError("q_star must be positive")


@dataclass
class TrackerState:
    """err is read-only to callers: an update writes it through a private view,
    and an in-place write from outside raises.  Assigning a new array is the
    way in; the bound B, taken on the old one, then becomes unknown."""

    err: np.ndarray
    kappa: float
    params: TrackerParams
    # upper bound on max_k |err_k|; NaN or inf when unknown (reset_bound)
    bound: float = math.inf
    # work array for (1/kappa) b, so an update allocates nothing
    _scaled: np.ndarray = field(init=False, repr=False, compare=False)
    # the array err was taken over as, and its writable view
    _ro: np.ndarray = field(init=False, repr=False, compare=False)
    _rw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scaled = np.empty_like(self.err)
        self._take()

    def _take(self):
        self._ro, self._rw = self.err, self.err.view()
        self.err.flags.writeable = False


def _own_err(state: TrackerState) -> np.ndarray:
    """err's writable view; a newly assigned err is taken over first, and B
    becomes unknown."""
    if state.err is not state._ro:
        state._take()
        state.bound = math.inf
    return state._rw


def make_tracker(params: TrackerParams, n_dim: int) -> TrackerState:
    """Fresh state: err(0) = 0, kappa_0 = 0."""
    return TrackerState(err=np.zeros(n_dim, dtype=complex), kappa=0.0, params=params, bound=0.0)


def clamp_budget(count: int, n: int) -> int:
    """A sparsity count clamped to the valid budget range [1, N]."""
    return min(max(count, 1), n)


def tracker_update(state: TrackerState, b: np.ndarray, beta: float = math.inf) -> TrackerState:
    """kappa <- lam*kappa + 1;  err <- (1 - 1/kappa)*err - (1/kappa)*b.

    ``beta`` bounds max_k |b_k|; it advances the bound B, which the default
    +inf leaves unknown until ``reset_bound``.
    """
    if b.shape != state.err.shape:
        raise ValueError(f"direction has shape {b.shape}, expected {state.err.shape}")
    err = _own_err(state)
    state.kappa = state.params.lam * state.kappa + 1.0
    inv = 1.0 / state.kappa
    keep = 1.0 - inv
    err *= keep
    err -= np.multiply(b, inv, out=state._scaled)
    # each component of the new err_k is fl(fl(keep err) - fl(inv b)), so
    # |err_k| <= (keep B + inv beta)(1 + u)^2, and the float products and sum
    # below lose at most three more roundings
    state.bound = (keep * state.bound + inv * beta) * (1.0 + BOUND_MARGIN) + _TINY
    return state


def reset_bound(state: TrackerState) -> None:
    """Set B to max_k |err_k|, rounded up; NaN when err holds a NaN."""
    _own_err(state)
    state.bound = float(np.abs(state.err).max()) * (1.0 + BOUND_MARGIN)


def corrected_estimate(state: TrackerState, w: np.ndarray) -> np.ndarray:
    """w' = w - xi * err."""
    if w.shape != state.err.shape:
        raise ValueError(f"estimate has shape {w.shape}, expected {state.err.shape}")
    return w - state.params.xi * state.err


def occupancy_mask(state: TrackerState, w: np.ndarray) -> np.ndarray:
    """Boolean mask of coefficients passing the occupancy test |w'| > q*."""
    return np.abs(corrected_estimate(state, w)) > state.params.q_star


def estimate_sparsity(state: TrackerState, w: np.ndarray) -> int:
    """Count of coefficients passing the occupancy test, clamped to [1, N]."""
    return clamp_budget(int(np.count_nonzero(occupancy_mask(state, w))), w.size)


def support_quiet(state: TrackerState) -> bool:
    """True when no coefficient whose estimate is exactly zero can pass.

    There |w'_k| is the computed |fl(xi err_k)|, at most xi |err_k| (1 + 4u)
    (one rounding per component, and numpy's complex abs within 2.3u) plus an
    absolute error below _TINY.  False when B is NaN or inf, and so when err
    was assigned since B was last set.
    """
    _own_err(state)
    q_star = state.params.q_star
    return state.params.xi * state.bound * (1.0 + BOUND_MARGIN) + _TINY < q_star


def support_count(state: TrackerState, w: np.ndarray, kept: np.ndarray) -> tuple[int, float]:
    """The unclamped passing count over the positions ``kept`` alone, and the
    slack: the smallest distance of a computed |w'_k| there from q*.

    Each |w'_k| is computed with the elementwise operations of
    ``occupancy_mask``, so when w is zero off ``kept`` and ``support_quiet``
    holds, the count is the full one.  The slack is NaN if an entry is NaN.
    """
    mag = np.abs(w[kept] - state.params.xi * state.err[kept])
    q_star = state.params.q_star
    count = int(np.count_nonzero(mag > q_star))
    mag -= q_star
    np.abs(mag, out=mag)
    return count, float(mag.min(initial=math.inf))
