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

An update whose direction is e* x(t) for row t of a ``fourier_rows`` table may
be logged instead (``log_update``): kappa and B advance in O(1) as in
``tracker_update``, and (t, e*, kappa) joins a log of preallocated arrays.
Reading ``err`` replays the log first, and ``support_count`` replays it over
its positions alone, keeping that partial replay while the positions stay the
same array.  A replay runs the elementwise operations of ``tracker_update`` in
the same order, e* x with e* first, so ``err`` is bit for bit the eager one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative margin of the bound B and of the off-support test, far above the few
# ulps of rounding it covers (u = 2^-53); _TINY covers the absolute error of a
# product below the normal range
BOUND_MARGIN = 1e-12
_TINY = float(np.finfo(float).tiny)

# first capacity of the update log, doubled when it fills up to _LOG_CAP
# entries (28 bytes each); a full log at the cap is replayed
_LOG_START = 256
_LOG_CAP = 1 << 16
# bytes of e* x rows a replay forms at once
_REPLAY_BYTES = 1 << 18


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


class TrackerState:
    """err, kappa and the bound B of one tracker, and its log of updates not
    yet applied to err (see ``log_update``)."""

    def __init__(self, err: np.ndarray, kappa: float, params: TrackerParams,
                 bound: float = math.inf):
        self._err = err
        self.kappa = kappa
        self.params = params
        # upper bound on max_k |err_k|; NaN or inf when unknown (reset_bound)
        self.bound = bound
        # work array for (1/kappa) b, so an update allocates nothing
        self._scaled = np.empty_like(err)
        # the log: entries [0, _logged) of the position, e* and kappa arrays,
        # with the table whose rows the positions index
        self._table = None
        self._pos = np.empty(_LOG_START, dtype=np.int32)
        self._e_conj = np.empty(_LOG_START, dtype=complex)
        self._kappa = np.empty(_LOG_START)
        self._logged = 0
        # err at the positions _at, with the first _at_done logged updates applied
        self._at = None
        self._at_err = None
        self._at_done = 0

    @property
    def err(self) -> np.ndarray:
        """The error average with every logged update applied."""
        if self._logged:
            _replay(self)
        return self._err

    @err.setter
    def err(self, value: np.ndarray) -> None:
        self._err = value
        self._logged = 0
        self._at = None


def make_tracker(params: TrackerParams, n_dim: int) -> TrackerState:
    """Fresh state: err(0) = 0, kappa_0 = 0."""
    return TrackerState(err=np.zeros(n_dim, dtype=complex), kappa=0.0, params=params, bound=0.0)


def clamp_budget(count: int, n: int) -> int:
    """A sparsity count clamped to the valid budget range [1, N]."""
    return min(max(count, 1), n)


def _advance(state: TrackerState, beta: float) -> tuple[float, float]:
    """kappa <- lam*kappa + 1, B advanced by a direction bounded by beta;
    returns (1/kappa, 1 - 1/kappa)."""
    state.kappa = state.params.lam * state.kappa + 1.0
    inv = 1.0 / state.kappa
    keep = 1.0 - inv
    # each component of the new err_k is fl(fl(keep err) - fl(inv b)), so
    # |err_k| <= (keep B + inv beta)(1 + u)^2, and the float products and sum
    # below lose at most three more roundings
    state.bound = (keep * state.bound + inv * beta) * (1.0 + BOUND_MARGIN) + _TINY
    return inv, keep


def tracker_update(state: TrackerState, b: np.ndarray, beta: float = math.inf) -> TrackerState:
    """kappa <- lam*kappa + 1;  err <- (1 - 1/kappa)*err - (1/kappa)*b.

    ``beta`` bounds max_k |b_k|; it advances the bound B, which the default
    +inf leaves unknown until ``reset_bound``.
    """
    if b.shape != state._err.shape:
        raise ValueError(f"direction has shape {b.shape}, expected {state._err.shape}")
    if state._logged:
        _replay(state)
    err = state._err
    inv, keep = _advance(state, beta)
    err *= keep
    err -= np.multiply(b, inv, out=state._scaled)
    state._at = None
    return state


def log_update(state: TrackerState, table: np.ndarray, t: int, e_conj: complex,
               beta: float) -> None:
    """``tracker_update(state, e_conj * table[t], beta)``, with err left for a
    later read to replay: kappa and B advance now, and (t, e*, kappa) is logged."""
    if state._logged and table is not state._table:
        _replay(state)
    state._table = table
    if state._logged == state._pos.size:
        if state._logged >= _LOG_CAP:
            _replay(state)
        else:
            size = 2 * state._logged
            state._pos = np.resize(state._pos, size)
            state._e_conj = np.resize(state._e_conj, size)
            state._kappa = np.resize(state._kappa, size)
    i = state._logged
    _advance(state, beta)
    state._pos[i] = t
    state._e_conj[i] = e_conj
    state._kappa[i] = state.kappa
    state._logged = i + 1


def _apply(state: TrackerState, err: np.ndarray, start: int, stop: int, cols=None) -> None:
    """Apply logged updates [start, stop) to err, the error at the positions
    ``cols`` (all positions when None), as tracker_update would have."""
    table = state._table
    chunk = max(1, _REPLAY_BYTES // (16 * max(err.size, 1)))
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        pos = state._pos[lo:hi]
        rows = table[pos] if cols is None else table[pos[:, None], cols]
        b = np.multiply(state._e_conj[lo:hi, None], rows)  # e* x, as the step forms it
        inv = 1.0 / state._kappa[lo:hi]
        b *= inv[:, None]
        # err *= keep multiplies by keep + 0j; Python complex scalars dispatch
        # fastest and are those operands exactly
        keep = (1.0 - inv).astype(complex).tolist()
        for k, row in zip(keep, b):
            err *= k
            err -= row


def _replay(state: TrackerState) -> None:
    _apply(state, state._err, 0, state._logged)
    state._logged = 0
    state._at = None


def reset_bound(state: TrackerState) -> None:
    """Set B to max_k |err_k|, rounded up; NaN when err holds a NaN."""
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
    absolute error below _TINY.  False when B is NaN or inf.
    """
    q_star = state.params.q_star
    return state.params.xi * state.bound * (1.0 + BOUND_MARGIN) + _TINY < q_star


def support_count(state: TrackerState, w: np.ndarray, kept: np.ndarray) -> tuple[int, float]:
    """The unclamped passing count over the positions ``kept`` alone, and the
    slack: the smallest distance of a computed |w'_k| there from q*.

    Each |w'_k| is computed with the elementwise operations of
    ``occupancy_mask``, so when w is zero off ``kept`` and ``support_quiet``
    holds, the count is the full one.  The slack is NaN if an entry is NaN.
    Logged updates are replayed over ``kept`` alone.
    """
    mag = np.abs(w[kept] - state.params.xi * _err_at(state, kept))
    q_star = state.params.q_star
    count = int(np.count_nonzero(mag > q_star))
    mag -= q_star
    np.abs(mag, out=mag)
    return count, float(mag.min(initial=math.inf))


def _err_at(state: TrackerState, kept: np.ndarray) -> np.ndarray:
    """err[kept] with every logged update applied, leaving err itself as it is.

    The replay over ``kept`` is kept for the next call with the same array;
    another array, a full replay or an eager update starts it afresh.
    """
    if state._at is not kept:
        state._at, state._at_err, state._at_done = kept, state._err[kept], 0
    if state._at_done < state._logged:
        _apply(state, state._at_err, state._at_done, state._logged, kept)
        state._at_done = state._logged
    return state._at_err
