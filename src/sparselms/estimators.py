"""Single-sample online estimators: LMS and its six sparsity-aware variants.

Every variant is one update rule, w <- P(w + mu e* x - rho g(w)), with the
a-priori error e(n) = y(n) - w(n)^H x(n).  A step runs, in this order:

1. budget: the fixed ``s``, the tracker's count, or the tracker's occupancy
   mask, computed once from the pre-update iterate w(n);
2. penalty g(w(n)): none, za, rza, l0 or selective(s);
3. gradient step: w += (mu e*) x;
4. shrink: w -= rho g;
5. projection P: none, top-s (coefficients outside the kept set are exactly
   zero) or the occupancy mask, falling back to top-s when the mask is empty.

The variant fixes the penalty (``_PENALTY``) and whether a projection runs
(``hard`` and ``hard_l0``); the README tabulates both.

Support path: after a top-s cut, w is zero off the kept set K, so on the next
step every entry off K of the dense update is exactly c x_k (c = mu e*), of
magnitude |c| for unit-magnitude rows.  When every entry on K provably
outweighs |c| (``_certified``), the cut would return K again, and updating
w[K] alone gives the dense result bit for bit.  Otherwise the dense steps run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import unit_magnitude
from .sparse_ops import complex_sign, hard_threshold, selective_penalty
from .tracker import (
    TrackerParams,
    TrackerState,
    clamp_budget,
    estimate_sparsity,
    make_tracker,
    occupancy_mask,
    tracker_update,
)

# the EstimatorConfig fields each variant reads besides mu; burn_in delays a
# penalty or a projection, and lms has neither
READS = {"lms": (), "za": ("rho", "burn_in"), "rza": ("rho", "epsilon", "burn_in"),
         "l0": ("rho", "beta", "burn_in"), "sza": ("rho", "s", "burn_in"),
         "hard": ("s", "burn_in"), "hard_l0": ("rho", "beta", "s", "burn_in")}
VARIANTS = tuple(READS)

# variants that need a sparsity budget s
THRESHOLDED = frozenset(v for v, names in READS.items() if "s" in names)
# variants that end a step with a top-s cut or an occupancy mask
PROJECTED = frozenset(("hard", "hard_l0"))


def reads_tracker(config: "EstimatorConfig", params: TrackerParams) -> bool:
    """True when a budget or a mask of this variant queries the tracker: a
    thresholded variant without a fixed s, or a projected one with use_support."""
    if config.variant not in THRESHOLDED:
        return False
    return config.s is None or (params.use_support and config.variant in PROJECTED)


@dataclass(frozen=True)
class EstimatorConfig:
    variant: str
    mu: float
    rho: float = 0.0
    beta: float = 0.0
    epsilon: float = 1.0
    s: int | None = None       # None -> budget supplied by the tracker
    burn_in: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", self.variant.lower())
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("mu", "rho", "beta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.mu < 2.0:
            raise ValueError(f"step size must satisfy 0 < mu < 2, got {self.mu}")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")


@dataclass
class EstimatorState:
    w: np.ndarray
    n: int = 0

    @classmethod
    def zeros(cls, n_dim: int) -> "EstimatorState":
        return cls(w=np.zeros(n_dim, dtype=complex))


def prediction_error(state: EstimatorState, sample) -> complex:
    """e(n) = y(n) - w(n)^H x(n)."""
    if sample.x.shape != state.w.shape:
        raise ValueError(f"regressor has shape {sample.x.shape}, expected {state.w.shape}")
    return sample.y - np.vdot(state.w, sample.x)


# -- penalties g(w, config, s) -------------------------------------------------
#
# Each returns a fresh array, which the step scales by rho in place.


def _za(w, cfg, s):
    """Uniform zero attraction: sgn(w)."""
    return complex_sign(w)


def _rza(w, cfg, s):
    """Reweighted attraction: sgn(w) / (1 + epsilon |w|)."""
    g = complex_sign(w)
    weight = np.abs(w)
    weight *= cfg.epsilon
    weight += 1.0
    g /= weight
    return g


def _l0(w, cfg, s):
    """Smoothed-l0 attraction: sgn(w) * exp(-beta |w|)."""
    g = complex_sign(w)
    weight = np.abs(w)
    weight *= -cfg.beta
    np.exp(weight, out=weight)
    g *= weight
    return g


def _selective(w, cfg, s):
    """Sign penalty only off the top-s support."""
    return selective_penalty(w, s)


_PENALTY = {"za": _za, "rza": _rza, "l0": _l0, "sza": _selective, "hard_l0": _l0}

# -- projections P(w, s, mask) -------------------------------------------------


def _top_s(w, s, mask):
    return hard_threshold(w, s)


def _occupancy(w, s, mask):
    # the passing set becomes the next support
    if mask.any():
        w[~mask] = 0
        return w
    return hard_threshold(w, s)


# -- support path --------------------------------------------------------------
#
# Off K the dense update holds fl(c x_k), with c = a + ib and x_k a table root
# whose computed |x_k|^2 is at most 1 + 4u (u = 2^-53, sensing.UNIT_SQ_MAG_BOUND),
# so |x_k| <= 1 + 3u.  With c2 = fl(a^2 + b^2) and m2 = fl(re^2 + im^2) as in
# keep_mask:
#   |fl(c x_k)| <= |c| |x_k| (1 + sqrt(2) gamma_2)    (complex product, Higham 3.5)
#              <= |c| (1 + 5.9u),
#   m2(fl(c x_k)) <= |fl(c x_k)|^2 (1 + u)^2 <= |c|^2 (1 + 13.7u),
#   |c|^2 <= c2 / (1 - u)^2 <= c2 (1 + 2.1u),
# so every off-K m2 is at most c2 (1 + 16u), about 1.8e-15 relative.  _DELTA
# leaves a wide margin over that and over the rounding of the comparison
# itself.  Below the normal range the squares carry an absolute error of a few
# 2^-1074, which _TINY covers.  If min m2(v) on K beats the bound, the s = |K|
# largest entries of the dense update are exactly K and keep_mask returns K.
_DELTA = 1e-12
_TINY = np.finfo(float).tiny


def _support(cut, w, s, x):
    """K of the last top-s cut when the support path may be tried, else None.

    ``cut`` is (K, the array that cut returned).  The path needs w to be that
    array, so that w is zero off K, |K| = s and a unit-magnitude regressor.
    """
    if cut is None or cut[1] is not w or cut[0].size != s or not unit_magnitude(x):
        return None
    return cut[0]


def _certified(v, c) -> bool:
    """True when every |v_k|^2 exceeds every off-support |fl(c x_k)|^2.

    NaN and inf in v never pass, so the dense cut reports them.
    """
    m2 = v.real * v.real + v.imag * v.imag
    m2.sort()  # one call for both ends, cheaper than min and max; NaN sorts last
    c2 = c.real * c.real + c.imag * c.imag
    return bool(m2[0] > c2 * (1.0 + _DELTA) + _TINY and m2[-1] < math.inf)


class Estimator:
    """Drives one update rule over a measurement stream.

    Burn-in (the first ``config.burn_in`` samples) skips both the penalty and
    the projection, so every variant runs plain LMS, with one exception:
    hard_l0 keeps its l0 penalty during burn-in (exp3's HARD-L0 curve depends
    on it).  When ``config.s`` is None the budget is supplied each step by the
    tracker, which consumes the update direction b(n) the step already
    computed.  With ``use_support`` the tracker's occupancy mask replaces the
    top-s cut of the thresholded variants.  A tracker that no budget or mask
    reads, or whose ``xi`` is 0, is not updated.

    After a top-s cut the next active step takes the support path when
    ``state.w`` is still the array that cut returned and the budget equals the
    kept count; reassigning ``state.w`` sends the step back to the dense rule.
    """

    def __init__(
        self,
        config: EstimatorConfig,
        n_dim: int,
        tracker_params: TrackerParams | None = None,
    ):
        self.config = config
        self.state = EstimatorState.zeros(n_dim)
        self.tracker: TrackerState | None = None
        if tracker_params is not None:
            self.tracker = make_tracker(tracker_params, n_dim)
        if config.s is not None and not 1 <= config.s <= n_dim:
            raise ValueError(f"need 1 <= s <= {n_dim}, got s={config.s}")
        variant = config.variant
        if variant in THRESHOLDED and config.s is None and self.tracker is None:
            raise ValueError(f"{variant} needs a fixed s or a tracker")
        # the a-posteriori error is e (1 - mu |x|^2), and |x|^2 = N for unit rows
        if not 0.0 < config.mu * n_dim < 2.0:
            raise ValueError(
                f"step size must satisfy 0 < mu*N < 2, got mu={config.mu}, N={n_dim}, "
                f"mu*N={config.mu * n_dim}"
            )
        self.last_s: int | None = None

        self._cut = None  # (K, w) of the last top-s cut
        self._penalty = _PENALTY.get(variant)
        self._penalty_in_burn_in = variant == "hard_l0"
        self._budget = self._project = None
        if variant in THRESHOLDED:
            self._budget = self._tracker_budget if config.s is None else self._fixed_budget
        if variant in PROJECTED:
            self._project = _top_s
            if tracker_params is not None and tracker_params.use_support:
                self._budget, self._project = self._mask_budget, _occupancy
        # a budget reads err only through |w - xi err|, which is |w| when xi = 0
        # and err is finite.  err turns non-finite only when b = e* x overflows
        # in a diverged run; the NaN that 0 err then puts in w - 0 err is not
        # reproduced.
        self._track = (
            tracker_params is not None
            and tracker_params.xi != 0.0
            and reads_tracker(config, tracker_params)
        )

    def _fixed_budget(self, w):
        return self.config.s, None

    def _tracker_budget(self, w):
        return estimate_sparsity(self.tracker, w), None

    def _mask_budget(self, w):
        mask = occupancy_mask(self.tracker, w)
        if self.config.s is not None:
            return self.config.s, mask
        return clamp_budget(int(np.count_nonzero(mask)), w.size), mask

    def step(self, sample) -> complex:
        cfg = self.config
        st = self.state
        active = st.n >= cfg.burn_in
        s = mask = shrink = kept = None
        if active and self._budget is not None:
            s, mask = self._budget(st.w)
        if active and self._project is _top_s:
            kept = _support(self._cut, st.w, s, sample.x)
        w = st.w if kept is None else st.w[kept]
        if self._penalty is not None and (active or self._penalty_in_burn_in):
            # complex_sign(0) = 0, so off K the penalty is exactly zero
            shrink = self._penalty(w, cfg, s)
            shrink *= cfg.rho
        e = prediction_error(st, sample)
        e_conj = e.conjugate()
        c = cfg.mu * e_conj
        if kept is not None:
            v = w + c * sample.x[kept]
            if shrink is not None:
                v -= shrink
            if _certified(v, c):
                st.w[kept] = v
            else:
                if shrink is not None:
                    full = np.zeros_like(st.w)
                    full[kept] = shrink
                    shrink = full
                kept = None
        if kept is None:
            st.w += c * sample.x
            if shrink is not None:
                st.w -= shrink
            if active and self._project is not None:
                st.w = self._project(st.w, s, mask)
                if self._project is _top_s:
                    self._cut = (np.flatnonzero(st.w), st.w)
        st.n += 1

        if self._track:
            tracker_update(self.tracker, e_conj * sample.x)
        self.last_s = s
        return e
