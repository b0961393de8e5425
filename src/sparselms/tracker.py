"""Online sparsity estimation from exponentially weighted error tracking.

The estimator's own update direction b(n) = e*(n) x(n) satisfies
E[b] = -(w(n) - w) under the unit-magnitude regressor convention, so an
exponentially weighted average of -b tracks the current estimation error.
Subtracting a scaled copy of that average from the estimate gives a corrected
vector whose magnitudes are compared against the occupancy threshold q*; the
number of coefficients passing is the sparsity estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    err: np.ndarray
    kappa: float
    params: TrackerParams
    # work array for (1/kappa) b, so an update allocates nothing
    _scaled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scaled = np.empty_like(self.err)


def make_tracker(params: TrackerParams, n_dim: int) -> TrackerState:
    """Fresh state: err(0) = 0, kappa_0 = 0."""
    return TrackerState(err=np.zeros(n_dim, dtype=complex), kappa=0.0, params=params)


def clamp_budget(count: int, n: int) -> int:
    """A sparsity count clamped to the valid budget range [1, N]."""
    return min(max(count, 1), n)


def tracker_update(state: TrackerState, b: np.ndarray) -> TrackerState:
    """kappa <- lam*kappa + 1;  err <- (1 - 1/kappa)*err - (1/kappa)*b."""
    if b.shape != state.err.shape:
        raise ValueError(f"direction has shape {b.shape}, expected {state.err.shape}")
    state.kappa = state.params.lam * state.kappa + 1.0
    inv = 1.0 / state.kappa
    state.err *= 1.0 - inv
    state.err -= np.multiply(b, inv, out=state._scaled)
    return state


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
