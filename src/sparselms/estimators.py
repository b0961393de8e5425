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
A passed certificate is recorded (the smallest and largest |w_k| on K), and
later steps re-prove it in O(1) from a bound on how far any |w_k| has moved
since (``_recertified``); the O(|K|) check runs only when that margin is spent.

Budget path: on the same array, the tracker's count is read from K, and after
certified steps it is reused while a bound on how far any |w_k - xi err_k| on
K has moved stays below the slack of the last count (``_budget_support``).
Otherwise the budget is the full O(N) query, ``estimate_sparsity``.  A
certified step of such a budget logs its tracker update (``log_update``)
instead of running it: only the count on K and full reads of ``err`` replay it.

Selective path (sza): its iterate stays dense, but its top-s set K stops
changing.  After an exact cut with a strict gap around K, the set is reused
while a bound on how far any |w_k| has moved since stays below half the gap
(``_kept_top``); the penalty is then complex_sign(w) with zeros on K.

The scalars of a step (e, e*, c = mu e* and the bounds) are Python numbers:
``prediction_error`` converts numpy's e, and c is formed as complex x complex,
which is numpy's complex128 product bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .sensing import unit_magnitude
from .sparse_ops import complex_sign, hard_threshold, keep_mask, selective_penalty
from .tracker import (
    TrackerParams,
    TrackerState,
    clamp_budget,
    estimate_sparsity,
    log_update,
    make_tracker,
    occupancy_mask,
    reset_bound,
    support_count,
    support_quiet,
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
    """e(n) = y(n) - w(n)^H x(n), numpy's complex128 value as a Python complex."""
    if sample.x.shape != state.w.shape:
        raise ValueError(f"regressor has shape {sample.x.shape}, expected {state.w.shape}")
    return complex(sample.y - np.vdot(state.w, sample.x))


# -- penalties g(w, config, s) -------------------------------------------------
#
# Each returns a fresh array, which the step scales by rho in place.


def _za(w, cfg, s):
    """Uniform zero attraction: sgn(w)."""
    return complex_sign(w)


def _rza(w, cfg, s):
    """Reweighted attraction: sgn(w) / (1 + epsilon |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
    weight *= cfg.epsilon
    weight += 1.0
    g /= weight
    return g


def _l0(w, cfg, s):
    """Smoothed-l0 attraction: sgn(w) * exp(-beta |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
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
_TINY = float(np.finfo(float).tiny)
_ROOT_TINY = math.sqrt(_TINY)


def _support(cut, w, s, x):
    """K of the last top-s cut when the support path may be tried, else None.

    ``cut`` is (K, the array that cut returned).  The path needs w to be that
    array, so that w is zero off K, |K| = s and a unit-magnitude regressor.
    """
    if cut is None or cut[1] is not w or cut[0].size != s or not unit_magnitude(x):
        return None
    return cut[0]


def _certified(v, c):
    """(lo, top) = (sqrt(min m2), sqrt(max m2) + sqrt(tiny)) over v when every
    |v_k|^2 exceeds every off-support |fl(c x_k)|^2, else None.

    NaN and inf in v never pass, so the dense cut reports them.
    """
    m2 = v.real * v.real + v.imag * v.imag
    m2.sort()  # one call for both ends, cheaper than min and max; NaN sorts last
    c2 = c.real * c.real + c.imag * c.imag
    if m2[0] > c2 * (1.0 + _DELTA) + _TINY and m2[-1] < math.inf:
        return math.sqrt(m2[0]), math.sqrt(m2[-1]) + _ROOT_TINY
    return None


# Carrying the certificate.  When _certified(v, c) passes on the array of the
# last cut, the step records (cut, lo, top) from it, with r = sqrt(_TINY), and
# sets the drift D to 0.  m2 is |v|^2 within a relative 3u, or an absolute
# _TINY below the normal range, so every |v_k| on K is at least lo (1 - 3u) - r
# and at most top (1 + 4u).  A certified step stores the same sums as one of
# sza's steps, with rho = 0 for hard and hard_l0's l0 shrink otherwise, so by
# the bound derived below for sza it moves every |v_k| by at most
#   inc = (|c| + rho)(1 + _DELTA) + _DELTA (top + D) + _TINY.
# With D' = D + inc, the step's v has every |v_k| >= lo (1 - 3u) - r - D' and
# |v_k| <= top (1 + 4u) + D'.  _recertified then asks
#   (a) lo - D' - _DELTA (top + D') - 8 r > |c| (1 + _DELTA) + r,
#   (b) top + D' < _ROOT_MAX = sqrt(largest float) (1 - _DELTA).
# From (a) every |v_k| >= a = |c| (1 + _DELTA) + 8 r: the _DELTA term covers
# 3u lo and the roundings of (a) itself, all relative to lo <= top, D' or
# |c| <= inc.  Each square rounds by u relative, or by 2^-1075 absolute below
# the normal range, and their sum by u, so the computed m2 of every v_k is at
# least
#   a^2 (1 - 2u) - 2^-1073 >= |c|^2 (1 + _DELTA)^2 (1 - 2u) + 63 _TINY,
# while _certified's right side, with c2 <= |c|^2 (1 + 3u) + _TINY, is at most
# |c|^2 (1 + _DELTA)(1 + 6u) + 3 _TINY: min m2 passes, subnormal squares
# included.  From (b) every |v_k| is below _ROOT_MAX (1 + 5u), whose computed
# square is finite: max m2 < inf passes.  So a step that passes (a) and (b)
# takes the path _certified gives it, and D becomes D'.  A NaN |c| fails both,
# and an infinite one makes D' infinite, so a non-finite e(n) runs _certified,
# and through it the dense rule.  Otherwise _certified runs: a pass records
# afresh, a failure drops the record.  v is the compact array the step wrote
# to w[K], and the next step reads it in place of w[K].
_ROOT_MAX = math.sqrt(float(np.finfo(float).max)) * (1.0 - _DELTA)


def _recertified(rec, abs_c, drift) -> bool:
    """True when ``rec`` = (cut, lo, top) of the last certificate proves that
    ``_certified`` passes on this step's v; ``drift`` bounds how far any |v_k|
    on K has moved since the record, this step included."""
    _, lo, top = rec
    reach = top + drift
    return reach < _ROOT_MAX and (
        lo - drift - _DELTA * reach - 8.0 * _ROOT_TINY > abs_c * (1.0 + _DELTA) + _ROOT_TINY
    )


# -- selective path ------------------------------------------------------------
#
# At an exact cut on w0, with m2 = fl(re^2 + im^2) as in keep_mask, K holds the
# s entries with m2 >= hi and every other entry has m2 <= lo < hi: a strict
# gap, so |K| = s and no entry ties at the cut.  m2 is |w|^2 within a relative
# 3u in the normal range and an absolute _TINY below it, so with r =
# sqrt(_TINY) every |w0_k| on K is at least sqrt(hi)(1 - 2u) - r, every other
# |w0_j| at most sqrt(lo)(1 + 2u) + r, and every |w0_k| at most top =
# sqrt(max m2) + r, up to a relative 2u.
#
# A step stores fl(fl(w + fl(c x_k)) - fl(rho g_k)).  With |x_k| <= 1 + 3u
# (registered rows only, sensing.UNIT_SQ_MAG_BOUND), |fl(c x_k)| <= |c|(1 + 6.1u)
# (Higham 3.5) and |g_k| <= 1 + 4u (v / fl(|v|), or 0), and each complex sum
# rounds by at most u of its result, so
#   |w'_k - w_k| <= (|c| + rho)(1 + 8u) + 2u |w_k| + (products below the
#                   normal range, a few 2^-1075),
# and |w_k| <= top (1 + 2u) + D with D the drift since the cut.  D therefore
# starts at 0 and each step adds
#   (|c| + rho)(1 + _DELTA) + _DELTA (top + D) + _TINY,
# which also covers the rounding of the sum itself.  Then every |w_k| on K is
# at least sqrt(hi) - D and every other at most sqrt(lo) + D, up to the same
# relative and absolute terms, and the computed m2 keep that order, up to a
# relative 3u and an absolute _TINY, when
#   2D + _DELTA D < gap = sqrt(hi) - sqrt(lo) - _DELTA top - 8 r
# (terms relative to top cover the roundings of the square roots and of gap).
# keep_mask(w, s) then returns K: the s largest m2 are K's, with no tie.
#
# The step falls back to the exact cut on the first active step, a reassigned
# w, a changed s, a non-unit row at any step since the cut (D = inf), a
# non-finite D and a non-finite e(n).  e(n) reads the same w as the penalty,
# and a NaN or inf in w makes it NaN or inf, so a NaN written into w in place
# still reaches keep_mask and its error.


def _top_cut(w, s):
    """keep_mask(w, s) from one partition, and the record of that cut: (K, w,
    gap, top) when K is separated by a strict gap, else None."""
    n = w.size
    m2 = w.real * w.real + w.imag * w.imag
    # keep_mask's own check: it names a NaN or inf, and a huge finite w, whose
    # squares may overflow, keeps no record
    if s == n or not math.isfinite(m2.dot(m2)):
        return keep_mask(w, s), None
    part = np.partition(m2, sorted({n - s - 1, n - s, n - 1}))
    lo, hi = part[n - s - 1], part[n - s]
    keep = m2 >= hi  # keep_mask's cut: hi is its (n - s)-th order statistic
    if not lo < hi:
        return keep, None
    top = math.sqrt(part[n - 1]) + _ROOT_TINY
    gap = math.sqrt(hi) - math.sqrt(lo) - _DELTA * top - 8.0 * _ROOT_TINY
    return keep, (np.flatnonzero(keep), w, gap, top)


def _kept_top(top, w, s, drift, e):
    """K of the last exact top-s cut when keep_mask(w, s) provably returns it
    again, else None.  ``top`` is that cut's ``_top_cut`` and ``drift`` the
    bound on how far any |w_k| has moved since."""
    if top is None or top[1] is not w or top[0].size != s or not cmath.isfinite(e):
        return None
    if not 2.0 * drift + _DELTA * drift < top[2]:  # NaN fails too
        return None
    return top[0]


# -- budget path ---------------------------------------------------------------
#
# The tracker's count is #{k : a_k > q*}, a_k the computed |w_k - xi err_k|.  On
# the array of the last top-s cut, w is exactly zero off K; while support_quiet
# holds no entry off K passes, and support_count over K is the full count.  It
# also returns the slack sigma, the smallest computed |a_k - q*| on K.
#
# Reusing the count.  Let t_k = |w_k - xi err_k| in exact arithmetic on the
# stored floats and d_k = |a_k - q*| >= sigma / (1 + u).  A certified step moves
# t_k by at most |dw_k| + xi |derr_k|, with c = mu e*, |x_k| <= 1 + 3u, l0's
# |g_k| <= 1 + 3u, inv = 1/kappa, B the bound before the update and
# beta = |e| (1 + _DELTA) the bound on |b_k| = |fl(e* x_k)|:
#   |dw_k|   <= (|c| + rho)(1 + 8u) + 3u |w_k|,      |w_k| <= t_k + xi B,
#   |derr_k| <= inv (B + beta)(1 + 3u) + 2u B          (fl(1 - inv) within u).
# Computing a_k adds at most 4u (t_k + xi B) + tiny, at the count and at the
# reuse.  The drift D starts at _DELTA (q* + sigma + xi B) + _TINY and each
# certified step adds
#   ((|c| + rho) + xi (inv (B + beta) + _DELTA B))(1 + _DELTA)
#       + _DELTA (q* + sigma + xi B') + _TINY            (B' after the update).
# While D < sigma after n steps, the terms absolute or relative to q* and xi B
# sum to less than sigma (1 - (n + 1) _DELTA), and t_k <= q* + d_k + sigma
# leaves terms relative to d_k below (9 + 3n) u d_k, less than the (n + 1)
# _DELTA d_k to spare: every a_k stays on its side of q*, and so does the count.
# A dense step, a reassigned w, a non-unit row (beta = +inf), NaN or inf (a NaN
# sigma, B or D fails every comparison) or a failed support_quiet runs the full
# query, which resets B to max |err_k|.


# A certified step logs its tracker update only while xi B < q* / _QUIET_HEADROOM.
# A full query replays the log at about the cost of the updates it holds, and it
# runs once xi B reaches q*; B, a running bound on |e|, would have to grow
# _QUIET_HEADROOM-fold first.  At N = 1000, xi B / q* stays below 0.02 on the
# logged steps of exp2 and exp3, and between 0.6 and 1 in exp4, where a full
# query runs every 20 steps on average and would replay every log.
_QUIET_HEADROOM = 4.0


def _budget_support(cut, w, tracker):
    """K of the last top-s cut when the tracker's count may be read from K, else
    None: w is that cut's array, so zero off K, and support_quiet holds."""
    if cut is None or cut[1] is not w or not support_quiet(tracker):
        return None
    return cut[0]


class Estimator:
    """Drives one update rule over a measurement stream.

    Burn-in (the first ``config.burn_in`` samples) skips both the penalty and
    the projection, so every variant runs plain LMS, with one exception:
    hard_l0 keeps its l0 penalty during burn-in (exp3's HARD-L0 curve depends
    on it).  When ``config.s`` is None the budget is supplied each step by the
    tracker, which consumes the update direction b(n) the step already
    computed.  With ``use_support`` the tracker's occupancy mask replaces the
    top-s cut of the thresholded variants.  A tracker that no budget or mask
    reads, or whose ``xi`` is 0, is not updated; a certified step of a tracker
    budget logs its update, which a read of ``tracker.err`` applies.

    After a top-s cut the next active step takes the support path when
    ``state.w`` is still the array that cut returned and the budget equals the
    kept count; reassigning ``state.w`` sends the step back to the dense rule
    and the budget back to the full query.  sza reuses its last exact top-s
    set only while ``state.w`` is the array that set was cut from.  These
    paths assume that only ``step`` writes into that array: change
    ``state.w`` by assigning a new one.  That holds for entries on K too: a
    certified step updates the kept values it wrote at the last certified
    step, not ``state.w[K]``.  A NaN, inf or huge value written in place still
    reaches e(n) and c, and through them the dense rule.
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
        self._mu = complex(config.mu)
        # the budget path: last count on K, its slack and the drift since
        self._count = None
        self._slack = 0.0  # nothing to spend: the next query counts afresh
        self._drift = 0.0
        self._rho = config.rho if variant in _PENALTY else 0.0
        self._penalty = _PENALTY.get(variant)
        # the record of the last exact check, sza's _top_cut or hard's
        # (cut, lo, top) from _certified, and the drift since; sza and the
        # support path never share an estimator
        self._selective = variant == "sza"
        self._top = None
        self._moved = 0.0
        self._kept_v = None  # the support path's last certified w[K]
        self._penalty_in_burn_in = variant == "hard_l0"
        # the budget is held as a function, not a bound method: a bound method
        # stored on its own instance is a reference cycle, which would keep the
        # estimator's arrays (the tracker's log among them) until the cycle
        # collector runs
        self._budget = self._project = None
        if variant in THRESHOLDED:
            self._budget = (
                Estimator._tracker_budget if config.s is None else Estimator._fixed_budget
            )
        if variant in PROJECTED:
            self._project = _top_s
            if tracker_params is not None and tracker_params.use_support:
                self._budget, self._project = Estimator._mask_budget, _occupancy
        # a budget reads err only through |w - xi err|, which is |w| when xi = 0
        # and err is finite.  err turns non-finite only when b = e* x overflows
        # in a diverged run; the NaN that 0 err then puts in w - 0 err is not
        # reproduced.
        self._track = (
            tracker_params is not None
            and tracker_params.xi != 0.0
            and reads_tracker(config, tracker_params)
        )
        # certified steps log their tracker update while B < _log_below; a mask
        # reads all of err
        self._log = self._track and self._budget is Estimator._tracker_budget
        if self._log:
            self._log_below = tracker_params.q_star / (_QUIET_HEADROOM * tracker_params.xi)

    def _fixed_budget(self, w):
        return self.config.s, None

    def _tracker_budget(self, w):
        tr = self.tracker
        kept = _budget_support(self._cut, w, tr)
        if kept is None:
            self._slack = 0.0
            s = estimate_sparsity(tr, w)
            reset_bound(tr)
            return s, None
        if not self._drift < self._slack:
            count, self._slack = support_count(tr, w, kept)
            self._count = clamp_budget(count, w.size)
            p = tr.params
            self._drift = _DELTA * (p.q_star + self._slack + p.xi * tr.bound) + _TINY
        return self._count, None

    def _selective_penalty(self, w, s, e):
        kept = _kept_top(self._top, w, s, self._moved, e)
        if kept is None:
            keep, self._top = _top_cut(w, s)
            self._moved = 0.0
            return selective_penalty(w, s, keep)
        pen = complex_sign(w)
        pen[kept] = 0
        return pen

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
            s, mask = self._budget(self, st.w)
        if active and self._project is _top_s:
            kept = _support(self._cut, st.w, s, sample.x)
        # a record of this cut was made or renewed by the last step, which left
        # w[K] in _kept_v
        recorded = kept is not None and self._top is not None and self._top[0] is self._cut
        if kept is None:
            w = st.w
        else:
            w = self._kept_v if recorded else st.w[kept]
        # before the penalty, which reads the same w; sza's certificate reads e
        e = prediction_error(st, sample)
        if self._penalty is not None and (active or self._penalty_in_burn_in):
            if self._selective:
                shrink = self._selective_penalty(w, s, e)
            else:
                # complex_sign(0) = 0, so off K the penalty is exactly zero
                shrink = self._penalty(w, cfg, s)
            shrink *= cfg.rho
        e_conj = e.conjugate()
        c = self._mu * e_conj
        abs_c = math.hypot(c.real, c.imag)
        rec = self._top
        if rec is not None:
            # the bound on this step's move of any |w_k|, derived for sza
            inc = (abs_c + self._rho) * (1.0 + _DELTA) + _DELTA * (rec[-1] + self._moved) + _TINY
        if kept is not None:
            v = w + c * sample.x[kept]
            if shrink is not None:
                v -= shrink
            if recorded and _recertified(rec, abs_c, self._moved + inc):
                self._moved += inc
            else:
                proof = _certified(v, c)
                self._top = None if proof is None else (self._cut, *proof)
                self._moved = 0.0
            if self._top is not None:
                st.w[kept] = v
                self._kept_v = v
            else:
                if shrink is not None:
                    full = np.zeros_like(st.w)
                    full[kept] = shrink
                    shrink = full
                kept = None
        if kept is None:
            self._slack = 0.0
            st.w += c * sample.x
            if shrink is not None:
                st.w -= shrink
            if active and self._project is not None:
                st.w = self._project(st.w, s, mask)
                if self._project is _top_s:
                    self._cut = (np.flatnonzero(st.w), st.w)
        st.n += 1

        tr = self.tracker
        bound = beta = 0.0
        if self._track:
            bound = tr.bound
            unit = kept is not None or unit_magnitude(sample.x)
            # math.hypot, unlike abs(complex), overflows to inf without raising
            beta = math.hypot(e.real, e.imag) * (1.0 + _DELTA) if unit else math.inf
            # the row's position, when the stream gives it
            t = getattr(sample, "t", None) if kept is not None and self._log else None
            if t is not None and bound < self._log_below:
                log_update(tr, sample.x.base, t, e_conj, beta)
            else:
                tracker_update(tr, e_conj * sample.x, beta)
        if self._selective and rec is not None:
            self._moved = self._moved + inc if unit_magnitude(sample.x) else math.inf
        if kept is not None and self._slack:
            # a certified step after a count on K: bound the move of every
            # |w_k - xi err_k| on K
            xi = tr.params.xi
            move = abs_c + self._rho
            if self._track:
                move += xi * ((bound + beta) / tr.kappa + _DELTA * bound)
            self._drift += (
                move * (1.0 + _DELTA)
                + _DELTA * (tr.params.q_star + self._slack + xi * tr.bound)
                + _TINY
            )
        self.last_s = s
        return e
