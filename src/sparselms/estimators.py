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

Records.  A ``Record`` keeps what one exact check proved about the iterate,
and a drift D that bounds how far any magnitude on its kept set K has moved
since; each step advances D in O(1), and the record answers for the check
while its predicate holds.  A top-s cut leaves w zero off K, and its record
lets the next steps update w[K] alone once ``_certified`` proves the cut would
return K again (``support_kept``), and ``sparse_iterate`` hands (K, w[K]) to
the r-MSE.  While a bound B on the tracker's largest error entry shows that no
entry off K can pass q*, the tracker's count is read from K and reused
(``count_reusable``); when B also shows that no entry on K can cross q*, the
count is decided from |w[K]| alone, without reading the tracker's error.
sza's iterate stays dense, but its top-s set is reused after an exact cut
with a strict gap (``set_kept``).  Every path gives the dense rule's results
bit for bit; the derivation is above ``Record``.

Deferred tracker updates.  After a count decided from |w[K]|, until the next
exact count or full query, a tracked step on a unit row appends (x, e*) to a
pending list and advances kappa and B in O(1).  Every read of the error (the
full query, an exact count and ``Estimator.tracker``; an estimator with the
occupancy mask never counts, so never defers) first replays the pending
updates in order (``replay_updates``, the operations of
``tracker_update``), so err and kappa are the eager rule's bits.  A step whose row is not a unit row, or whose e or B is too large for
the update to be free of overflow, updates eagerly, so a warning or a NaN
shows at its own step.

Two bodies.  ``Estimator.step`` runs the support step when the last top-s
cut's record is on ``state.w``, the row is a unit row and the budget is |K|
(a fixed s, or the tracker's count read from K): every step of hard and
hard_l0 once their support has settled.  It updates w[K] alone, in straight
line, and skips the O(N) update, the cut and every branch of the other
variants.  Any other step, and a support step whose certificate fails, runs
the general body: the dense rule above.  Both end on ``_update_tracker``.

Unit rows.  The bounds below need every computed |x_k|^2 <= 1 + 4u.  An
estimator takes the table of rows that meet it from ``sensing.unit_rows``
once, when it is built, and a step's row is a unit row when it is a view of
that table (``x.base is self._rows``).  Any other row takes the dense rule,
and makes the bounds it would advance infinite; so does a row of a table
that ``fourier_rows`` rebuilt after its cache dropped the estimator's.

The scalars of a step (e, e*, c = mu e* and the bounds) are Python numbers:
``prediction_error`` forms e as complex minus complex, and c as complex x
complex, which are numpy's complex128 difference and product bit for bit.
``make_stream`` gives y as a Python float, once per window.

complex128 and 0-d operands.  The iterate and the tracker's err are
complex128: ``prediction_error``, which every step on an assigned
``state.w`` runs, and ``TrackerState`` raise a ValueError naming the field
for any other dtype.  Each scalar a step passes to numpy is a preallocated
0-d array, assigned once per step: c in c x, e* in the tracker's b = e* x,
and rho (complex128), epsilon, the 1 of 1 + epsilon |w| and -beta (float64)
in the penalty and its weight (``_Scalars``); ``tracker_update`` does the
same with 1 - 1/kappa and 1/kappa.  numpy converts a Python scalar on every
call, which costs 0.08-0.15 us; against complex128 and float64 arrays the 0-d
array gives the same bits.  A row of another dtype (complex64, float32) meets
a complex128 operand, so numpy widens it exactly, and the step gives the bits
of its complex128 copy.

Shapes.  ``prediction_error`` checks the row's shape against the iterate's on
the general body; the support step checks it against the (N,) the estimator
holds, since state.w then holds the record.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sensing import unit_rows
from .sparse_ops import complex_sign, hard_threshold, keep_mask, selective_penalty
from .tracker import (
    TrackerParams,
    TrackerState,
    clamp_budget,
    estimate_sparsity,
    make_tracker,
    occupancy_mask,
    replay_updates,
    support_count,
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
    """e(n) = y(n) - w(n)^H x(n), numpy's complex128 value as a Python complex.

    ``state.w`` must be complex128 (native byte order), else ValueError; a
    row of another dtype is widened exactly.  e is formed as complex minus
    complex in Python, part by part: numpy also converts a real y to
    complex128 exactly before it subtracts, so this is numpy's bits for a
    float, int, complex or numpy scalar y, signed zeros and NaN included (a
    test pins it).  The complex128 dot converts with its own ``__complex__``,
    which complex() would call.
    """
    w = state.w
    if w.dtype != _C128:
        raise ValueError(f"state.w has dtype {w.dtype}, expected complex128")
    if sample.x.shape != w.shape:
        raise ValueError(f"regressor has shape {sample.x.shape}, expected {w.shape}")
    return complex(sample.y) - np.vdot(w, sample.x).__complex__()


# -- penalties g(w, k, s) ------------------------------------------------------
#
# Each returns a fresh array, which the step scales by k.rho in place.  k holds
# the scalar operands (_Scalars).


class _Scalars:
    """A penalty's scalar operands as 0-d arrays: rho (complex128) for the
    complex penalty, and epsilon, the 1 of 1 + epsilon |w| and -beta
    (float64) for the real weight |w|."""

    __slots__ = ("rho", "epsilon", "one", "neg_beta")

    def __init__(self, rho, epsilon, beta):
        self.rho = np.array(rho, dtype=complex)
        self.epsilon, self.one, self.neg_beta = (
            np.array(v, dtype=float) for v in (epsilon, 1.0, -beta))


def _za(w, k, s):
    """Uniform zero attraction: sgn(w)."""
    return complex_sign(w)


def _rza(w, k, s):
    """Reweighted attraction: sgn(w) / (1 + epsilon |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
    weight *= k.epsilon
    weight += k.one
    g /= weight
    return g


def _l0(w, k, s):
    """Smoothed-l0 attraction: sgn(w) * exp(-beta |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
    weight *= k.neg_beta
    np.exp(weight, out=weight)
    g *= weight
    return g


def _selective(w, k, s):
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


# -- records -------------------------------------------------------------------
#
# u = 2^-53, r = sqrt(_TINY), and m2 = fl(re^2 + im^2) as in keep_mask, which
# is |v|^2 within a relative 3u, or an absolute _TINY below the normal range.
# Unit rows (sensing.unit_rows) have computed |x_k|^2 <= 1 + 4u, so
# |x_k| <= 1 + 3u.
#
# Off K.  After a top-s cut w is zero off K, so off K the next dense update
# holds fl(c x_k), c = a + ib.  With c2 = fl(a^2 + b^2):
#   |fl(c x_k)| <= |c| |x_k| (1 + sqrt(2) gamma_2) <= |c| (1 + 5.9u)  (Higham 3.5),
#   m2(fl(c x_k)) <= |fl(c x_k)|^2 (1 + u)^2 <= |c|^2 (1 + 13.7u),
#   |c|^2 <= c2 / (1 - u)^2 <= c2 (1 + 2.1u),
# so every off-K m2 is at most c2 (1 + 16u), about 1.8e-15 relative.  _DELTA
# leaves a wide margin over that and over the comparison's own rounding, and
# _TINY covers squares below the normal range.  If min m2(v) on K beats the
# bound (_certified), the |K| largest entries of the dense update are exactly
# K, and keep_mask returns K.
#
# The move lemma.  A step stores fl(fl(w_k + fl(c x_k)) - fl(rho g_k)), with
# |fl(c x_k)| <= |c| (1 + 6.1u) and |g_k| <= 1 + 4u (v / fl(|v|), or 0); each
# complex sum rounds by at most u of its result, so
#   |w'_k - w_k| <= (|c| + rho)(1 + 8u) + 2u |w_k| + (products below the
#                   normal range, a few 2^-1075).
# With |w_k| <= top (1 + 2u) + D, D the drift since the record was taken, a
# step on a unit row moves any |w_k| on K by at most
#   inc = (|c| + rho)(1 + _DELTA) + _DELTA (top + D) + _TINY   (_step_bound),
# which also covers the rounding of the sum, and D advances by inc; any other
# row sets D = inf.  Three corollaries follow; (d) bounds the tracker, and (e)
# decides a count from B.
#
# (a) Support kept.  A passed _certified(v, c) records lo = sqrt(min m2) and
# top = sqrt(max m2) + r on K, with D = 0: every |v_k| on K is at least
# lo (1 - 3u) - r - D and at most top (1 + 4u) + D.  support_kept asks
#   lo - D - _DELTA (top + D) - 8 r > |c| (1 + _DELTA) + r,  top + D < _ROOT_MAX.
# The first gives every |v_k| >= a = |c| (1 + _DELTA) + 8 r: the _DELTA term
# covers 3u lo and the test's own roundings, relative to lo <= top, D or
# |c| <= inc.  Each square rounds by u relative, or 2^-1075 absolute below the
# normal range, and their sum by u, so every computed m2 on K is at least
#   a^2 (1 - 2u) - 2^-1073 >= |c|^2 (1 + _DELTA)^2 (1 - 2u) + 63 _TINY,
# while _certified's right side, with c2 <= |c|^2 (1 + 3u) + _TINY, is at most
# |c|^2 (1 + _DELTA)(1 + 6u) + 3 _TINY: min m2 passes, subnormal squares
# included.  The second keeps every |v_k| below _ROOT_MAX (1 + 5u), whose
# computed square is finite: max m2 < inf passes.  A NaN |c| fails both, and an
# infinite one makes D infinite, so a non-finite e(n) runs _certified and the
# dense rule.
#
# (b) Set kept (sza).  An exact cut (_top_cut) with K = {m2 >= hi} and every
# other m2 <= lo < hi (|K| = s, no tie) records top = sqrt(max m2) + r.  Every
# |w_k| on K is at least sqrt(hi)(1 - 2u) - r, every other at most
# sqrt(lo)(1 + 2u) + r, all at most top, up to a relative 2u.  After a drift D
# the computed m2 keep that order, and keep_mask(w, s) returns K, when
#   2D + _DELTA D < gap = sqrt(hi) - sqrt(lo) - _DELTA top - 8 r
# (terms relative to top cover the roundings of the square roots and of gap).
#
# (c) Count reusable.  A tracker budget counts #{k : a_k > q*}, a_k the computed
# |w_k - xi err_k|.  On the cut's array, while (d) shows that no entry off K
# passes, support_count over K is the full count; it also gives the slack
# sigma, the smallest |a_k - q*| on K.  Let t_k = |w_k - xi err_k| exactly, on
# the stored floats, and d_k = |a_k - q*| >= sigma / (1 + u).  With l0's
# |g_k| <= 1 + 3u, inv = 1/kappa, B the bound (d) before the update and
# beta = |e| (1 + _DELTA) >= |fl(e* x_k)|, a certified step moves t_k by at most
#   |dw_k| + xi |derr_k|,  |dw_k| <= (|c| + rho)(1 + 8u) + 3u |w_k|,
#   |w_k| <= t_k + xi B,   |derr_k| <= inv (B + beta)(1 + 3u) + 2u B,
# and computing a_k adds at most 4u (t_k + xi B) + tiny, at the count and at
# the reuse.  So the lemma holds with move (|c| + rho) + xi (inv (B + beta) +
# _DELTA B) and with q* + sigma + xi B' (B' after the update) for top + D; D
# starts at a null move's bound, _DELTA (q* + sigma + xi B) + _TINY.  While
# D < sigma after n steps, the terms absolute or relative to q* and xi B sum
# to less than sigma (1 - (n + 1) _DELTA), and t_k <= q* + d_k + sigma leaves
# terms relative to d_k below (9 + 3n) u d_k, under the (n + 1) _DELTA d_k to
# spare: every a_k stays on its side of q*, and so does the count.  A NaN
# sigma, B or D fails every comparison.
#
# (d) Error bound.  B bounds max_k |err_k|, and is 0 on a fresh tracker.  An
# update stores fl(fl(keep err_k) - fl(inv b_k)), keep = 1 - inv, and on a
# unit row |fl(e* x_k)| <= beta, so the new |err_k| is at most
# (keep B + inv beta)(1 + u)^2, and the float products and sum lose at most
# three more roundings: B advances to _step_bound(keep B + inv beta, 0), and
# any other row has beta = inf.  A full query resets B to the computed
# max |err_k| (1 + _DELTA), which covers numpy's complex abs (within 2.3u).
# Off K the count's a_k is the computed |fl(xi err_k)|, at most
# xi |err_k| (1 + 4u) plus an absolute error below _TINY, so no entry off K
# passes while _step_bound(xi B, 0) < q*.  An assigned err sets B = inf.
#
# (e) Count decided by B.  On K let m_k = fl(|w_k|), within 2.3u of |w_k|,
# and d_k = |m_k - q*|.  a_k rounds |w_k - p_k|, p_k = fl(xi err_k) and
# |p_k| <= xi B (1 + 4u) + tiny by (d), with one rounding of the difference
# (u) and one of the abs (2.3u), so
#   |a_k - m_k| <= xi B (1 + 8u) + 6u m_k + tiny,  m_k <= q* + d_k.
# If the smallest computed d_k, times (1 - _DELTA), exceeds
# _step_bound(xi B, q*), the _DELTA terms cover the 6u terms and the test's
# own roundings, and every a_k is on m_k's side of q*, at least that excess
# away: the count over K is #{m_k > q*}, and err is not read.  The excess is
# a lower bound on (c)'s sigma, and (c)'s argument holds for any such bound.
# A NaN m_k decides nothing.  An m_k that overflows to inf has |w_k| near the
# largest float, and |p_k| < q* (off K's test), so a_k > q* too while
# q* < _ROOT_MAX, which the test asks.
#
# A step that finds state.w reassigned drops the records; a changed budget and
# a dense step leave a record unread or drop it; a cut starts a record with
# nothing proved (lo = -inf).
_DELTA = 1e-12
_GROW = 1.0 + _DELTA
_TINY = float(np.finfo(float).tiny)
_ROOT_TINY = math.sqrt(_TINY)
_ROOT_MAX = math.sqrt(float(np.finfo(float).max)) * (1.0 - _DELTA)
# deferred e* values per packed complex128 array
_PACK = 1024
_C128 = np.dtype(complex)
# (e) is tried only while its reach is below this share of q*.  Past it, the
# band q* +- reach that every |w_k| on K must clear is wide and the test
# rarely passes: exp4's HARD-EST at N = 1000 runs with reach between 0.28 q*
# and q*, where 387 of 5,170 tests passed, while every test that passed on
# exp2's and exp3's labels had a reach below 0.12 q* (N = 64 to 1000).  A test
# not tried costs an exact count.
_E_REACH = 0.25


def _step_bound(move, scale):
    """The lemma's bound on one step's change of a magnitude on K: ``move``
    in exact arithmetic, on entries of size at most ``scale``."""
    return move * _GROW + _DELTA * scale + _TINY


@dataclass(slots=True, eq=False)
class Record:
    """What one exact check proved about the iterate, carried across steps.

    ``kept`` is K, ``top`` bounds the magnitudes on K, ``margin`` is what the
    check left to spend (lo, the gap or the slack) and ``drift`` D bounds how
    far any magnitude on K has moved since.  ``value`` is what the step reuses:
    the support's w[K], or the count.
    """

    kept: np.ndarray
    top: float
    margin: float
    drift: float = 0.0
    value: object = None

    def support_kept(self, abs_c) -> bool:
        """(a): _certified passes on this step's v, with the drift advanced."""
        d = self.drift
        reach = self.top + d
        return reach < _ROOT_MAX and (
            self.margin - d - _DELTA * reach - 8.0 * _ROOT_TINY
            > abs_c * (1.0 + _DELTA) + _ROOT_TINY
        )

    def set_kept(self) -> bool:
        """(b): keep_mask(w, s) returns K again."""
        d = self.drift
        return 2.0 * d + _DELTA * d < self.margin  # NaN fails too

    def count_reusable(self) -> bool:
        """(c): the count over K is unchanged."""
        return self.drift < self.margin


def _certified(v, c):
    """(lo, top) = (sqrt(min m2), sqrt(max m2) + sqrt(tiny)) over v when every
    |v_k|^2 exceeds every off-support |fl(c x_k)|^2, else None.

    NaN and inf in v never pass, so the dense cut reports them.
    """
    m2 = v.real * v.real + v.imag * v.imag
    # argmin and argmax point at the first NaN, which fails both tests
    lo, hi = m2[m2.argmin()], m2[m2.argmax()]
    c2 = c.real * c.real + c.imag * c.imag
    if lo > c2 * (1.0 + _DELTA) + _TINY and hi < math.inf:
        return math.sqrt(lo), math.sqrt(hi) + _ROOT_TINY
    return None


def _top_cut(w, s):
    """keep_mask(w, s) from one partition, and the record of that cut when K
    is separated by a strict gap, else None."""
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
    return keep, Record(np.flatnonzero(keep), top, gap)


def _support(rec, s, unit):
    """K of the last top-s cut when the support path may be tried, else None:
    |K| = s and the row is a unit row."""
    if rec is None or rec.kept.size != s or not unit:
        return None
    return rec.kept


def _budget_support(rec, params, bound):
    """K of the last top-s cut when the tracker's count may be read from K, else
    None: no entry off K passes, by (d) with B = ``bound``."""
    if rec is None or not _step_bound(params.xi * bound, 0.0) < params.q_star:
        return None
    return rec.kept


def _count_by_bound(v, q_star, reach):
    """(e): the count over K, #{|v_k| > q*}, and its slack, the smallest
    |v_k| - q* in magnitude less ``reach`` = _step_bound(xi B, q*), when that
    slack is positive; else None."""
    above = np.abs(v)
    above -= q_star  # fl(m - q*) > 0 exactly when m > q*
    slack = float(np.abs(above).min(initial=math.inf)) * (1.0 - _DELTA) - reach
    if not (slack > 0.0 and q_star < _ROOT_MAX):  # a NaN slack fails
        return None
    return int(np.count_nonzero(above > 0.0)), slack


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

    A row is a unit row, which the certificates need, when it is a view of
    the table ``unit_rows`` gave when the estimator was built; any other row
    takes the dense rule.  Next to its records the estimator holds B, the
    bound (d) on the tracker's largest error entry, as a Python float: each
    tracker update advances it, and each full query resets it.

    ``tracker`` is the tracker's state with every deferred update applied; a
    reference held across steps may show err without the updates deferred
    since.  The estimator counts, as plain ints, its ``full_queries``,
    ``exact_counts`` (on K, reading err), ``bound_counts`` (on K, decided by
    (e)), ``reused_counts``, ``deferred_updates``, ``replayed_updates``,
    ``general_steps`` and ``certificate_runs`` (calls of ``_certified``).

    ``step`` takes one sample.  A certified step of hard or hard_l0 finishes
    on ``_support_step``; every other step runs ``_general``, which a support
    step also enters, with the e, c and penalty it formed, when its
    certificate fails.  ``general_steps`` counts the steps that ran it.

    An array a record is taken on (each top-s cut of hard and hard_l0, sza's
    iterate at its first recorded cut) is read-only to callers
    from then on: the step writes it through a private writable view, and an
    in-place write from outside raises.  Assigning a new array to ``state.w``
    is the only way in; the next step drops the records, so it runs the dense
    rule and the full query.  A NaN, inf or huge value so assigned reaches
    e(n) and c, and through them the dense rule; an array that is not
    complex128 raises there.  The tracker's ``err`` is read-only to callers
    in the same way (``TrackerState``); an assigned one makes B unknown, which
    also sends the next budget to the full query.
    """

    # slots keep every attribute read specialised: past 30 attributes a plain
    # instance's dict loses CPython's shared keys, and each read slows down
    __slots__ = (
        "config", "state", "last_s", "full_queries", "exact_counts", "bound_counts",
        "reused_counts", "deferred_updates", "replayed_updates", "general_steps",
        "certificate_runs", "_tracker", "_rows", "_shape", "_mu", "_rho", "_k", "_c", "_e",
        "_burn_in", "_penalty", "_selective", "_penalty_in_burn_in",
        "_rec", "_count", "_ro", "_w", "_bound", "_err", "_pending", "_fresh", "_packed",
        "_kappa0", "_defer", "_s", "_budget", "_project", "_track", "_xi", "_lam",
    )

    def __init__(
        self,
        config: EstimatorConfig,
        n_dim: int,
        tracker_params: TrackerParams | None = None,
    ):
        self.config = config
        self.state = EstimatorState.zeros(n_dim)
        self._tracker: TrackerState | None = None
        if tracker_params is not None:
            self._tracker = make_tracker(tracker_params, n_dim)
        if config.s is not None and not 1 <= config.s <= n_dim:
            raise ValueError(f"need 1 <= s <= {n_dim}, got s={config.s}")
        variant = config.variant
        if variant in THRESHOLDED and config.s is None and self._tracker is None:
            raise ValueError(f"{variant} needs a fixed s or a tracker")
        # the a-posteriori error is e (1 - mu |x|^2), and |x|^2 = N for unit rows
        if not 0.0 < config.mu * n_dim < 2.0:
            raise ValueError(
                f"step size must satisfy 0 < mu*N < 2, got mu={config.mu}, N={n_dim}, "
                f"mu*N={config.mu * n_dim}"
            )
        self.last_s: int | None = None
        rows = unit_rows(n_dim)
        self._rows = object() if rows is None else rows  # no row's base is an object()
        self._shape = (n_dim,)

        self._mu = complex(config.mu)
        self._rho = rho = config.rho if variant in _PENALTY else 0.0
        # the penalty's scalars, and the 0-d operands of c and e* (the module
        # docstring's "complex128 and 0-d operands")
        self._k = _Scalars(rho, config.epsilon, config.beta)
        self._c, self._e = np.empty((), dtype=complex), np.empty((), dtype=complex)
        self._burn_in = config.burn_in
        self._penalty = _PENALTY.get(variant)
        self._selective = variant == "sza"
        self._penalty_in_burn_in = variant == "hard_l0"
        # the record of the last top-s cut (hard, hard_l0) or of sza's top-s
        # set, and of the last count on K; the read-only array records are
        # taken on, and its writable view
        self._rec = self._count = None
        self._ro = self._w = None
        # B, and the tracker's err it was taken on
        self._bound = 0.0
        self._err = None if self._tracker is None else self._tracker.err
        # the deferred tracker updates: their rows, their e* (the last few as
        # Python complex, the rest packed _PACK at a time into complex128
        # arrays, 16 bytes an update) and the kappa before the first.
        # _defer is set by a count decided by (e), and cleared by a read of err
        self._pending, self._fresh, self._packed = [], [], []
        self._kappa0 = 0.0
        self._defer = False
        self.full_queries = self.exact_counts = self.bound_counts = self.reused_counts = 0
        self.deferred_updates = self.replayed_updates = 0
        self.general_steps = self.certificate_runs = 0
        # the budget: the fixed s, or a tracker query (a count or the occupancy
        # mask) when _budget is set.  The query is held as a function, not a
        # bound method: a bound method
        # stored on its own instance is a reference cycle, which would keep the
        # estimator's arrays until the cycle collector runs
        self._s = self._budget = self._project = None
        if variant in THRESHOLDED:
            self._s = config.s
            if config.s is None:
                self._budget = Estimator._tracker_budget
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
        self._xi = 0.0 if tracker_params is None else tracker_params.xi
        self._lam = 0.0 if tracker_params is None else tracker_params.lam

    @property
    def tracker(self) -> TrackerState | None:
        """The tracker's state, with every deferred update applied."""
        if self._pending:
            self._replay()
        return self._tracker

    def _replay(self):
        """Apply the deferred updates in order, from the kappa before the
        first: the eager rule's bits, and kappa ends where the steps left it."""
        e_conj = itertools.chain(*self._packed, self._fresh)
        replay_updates(self._tracker, self._kappa0, zip(self._pending, e_conj))
        self.replayed_updates += len(self._pending)
        self._drop_pending()

    def _drop_pending(self):
        for pending in (self._pending, self._fresh, self._packed):
            pending.clear()

    def _read_err(self):
        """Before a budget reads err: replay, and update eagerly from now on."""
        if self._pending:
            self._replay()
        self._defer = False

    def _defer_update(self, x, e_conj):
        """Defer this step's tracker update, advancing kappa as it would."""
        tr = self._tracker
        pend = self._pending
        if not pend:
            self._kappa0 = tr.kappa
        pend.append(x)
        fresh = self._fresh
        fresh.append(e_conj)
        if len(fresh) == _PACK:
            self._packed.append(np.array(fresh))
            fresh.clear()
        tr.kappa = self._lam * tr.kappa + 1.0
        self.deferred_updates += 1

    def _update_tracker(self, x, e_conj, unit):
        """The tracker update with b = e* x, deferred or eager, and (d)'s
        advance of B.  Returns B before the update, and beta."""
        tr = self._tracker
        bound = self._bound
        # |e*| = |e|; math.hypot, unlike abs(), overflows to inf without raising
        beta = math.hypot(e_conj.real, e_conj.imag) * _GROW if unit else math.inf
        if self._defer and beta + bound < _ROOT_MAX:  # no overflow: NaN fails
            self._defer_update(x, e_conj)
        else:
            if self._pending:
                self._replay()
            # b = e* x, formed in the tracker's work array
            e0 = self._e
            e0[()] = e_conj
            tracker_update(tr, np.multiply(e0, x, out=tr.work))
        inv = 1.0 / tr.kappa
        self._bound = _step_bound((1.0 - inv) * bound + inv * beta, 0.0)  # (d)
        return bound, beta

    def _own(self, w):
        """Make w, which a record is taken on, read-only to callers."""
        if w is not self._ro:
            self._w = w.view()
            w.flags.writeable = False
            self._ro = w

    def sparse_iterate(self):
        """(K, w[K]) when ``state.w`` is known to be zero off K, else None.

        That holds while the record of the last top-s cut is on ``state.w``:
        after each cut of hard or hard_l0 and each certified step.  Dense
        variants, sza (its record is on a dense iterate), the occupancy mask
        and an assigned ``state.w`` give None.  Neither array changes
        afterwards: a certified step stores a new w[K].
        """
        rec = self._rec
        if self._project is not _top_s or rec is None or self.state.w is not self._ro:
            return None
        return rec.kept, rec.value

    def _tracker_budget(self, w):
        tr = self._tracker
        p = tr.params
        # sza's record is taken on a dense iterate: it counts in full
        kept = None if self._selective else _budget_support(self._rec, p, self._bound)
        if kept is None:
            self._count = None
            self._read_err()
            s = estimate_sparsity(tr, w)
            self._bound = float(np.abs(tr.err).max()) * (1.0 + _DELTA)  # (d)
            self.full_queries += 1
            return s, None
        rec = self._count
        if rec is not None and rec.count_reusable():
            self.reused_counts += 1
            return rec.value, None
        reach = _step_bound(p.xi * self._bound, p.q_star)
        decided = None
        if reach < _E_REACH * p.q_star:
            decided = _count_by_bound(self._rec.value, p.q_star, reach)  # the cut's w[K]
        if decided is None:
            self._read_err()
            count, slack = support_count(tr, w, kept)
            self.exact_counts += 1
        else:
            count, slack = decided
            self._defer = True
            self.bound_counts += 1
        top = p.q_star + slack
        drift = _step_bound(0.0, top + p.xi * self._bound)
        self._count = Record(kept, top, slack, drift, clamp_budget(count, w.size))
        return self._count.value, None

    def _mask_budget(self, w):
        mask = occupancy_mask(self._tracker, w)
        if self.config.s is not None:
            return self.config.s, mask
        return clamp_budget(int(np.count_nonzero(mask)), w.size), mask

    def _selective_penalty(self, w, s, e):
        rec = self._rec
        if rec is None or rec.kept.size != s or not cmath.isfinite(e) or not rec.set_kept():
            keep, self._rec = _top_cut(w, s)
            if self._rec is not None:
                self._own(w)
            return selective_penalty(w, s, keep)
        pen = complex_sign(w)
        pen[rec.kept] = 0
        return pen

    def step(self, sample) -> complex:
        """Take one sample and return its a-priori error e(n).

        Past burn-in the budget comes first, from the pre-update iterate.
        Then the step runs the support step when the last top-s cut's record is on
        ``state.w``, the row is a unit row and the budget is |K|, and the
        general body otherwise.
        """
        st = self.state
        # the one point where proofs are dropped: the records hold while
        # state.w is the array they were taken on, and B while err is
        if st.w is not self._ro:
            self._rec = self._count = None
        tr = self._tracker
        if tr is not None and tr.err is not self._err:
            # the updates deferred since were the replaced err's
            self._err, self._bound = tr.err, math.inf
            self._drop_pending()
        if st.n < self._burn_in:
            return self._general(sample, False, None, None)
        s, mask = self._s, None
        if self._budget is not None:
            s, mask = self._budget(self, st.w)
        if self._project is _top_s:
            x = sample.x
            kept = _support(self._rec, s, x.base is self._rows)
            if kept is not None:
                return self._support_step(sample, kept, s)
        return self._general(sample, True, s, mask)

    def _support_step(self, sample, kept, s) -> complex:
        """A step of hard or hard_l0 on K alone: v = w[K] + c x[K] - rho g(w[K]),
        stored when (a) or ``_certified`` proves that the top-s cut returns K.

        It makes the general body's numpy calls on K, in its order, then the
        tracker update and the count's drift (c).  A failed proof hands e, c
        and the penalty, spread to N, to the general body."""
        st = self.state
        rec = self._rec
        w = rec.value
        x = sample.x
        # prediction_error, inlined: a unit row is complex128, so the
        # dot is too, and its __complex__ is what complex() would call.
        # state.w holds the record, so its shape is the estimator's
        if x.shape != self._shape:
            raise ValueError(f"regressor has shape {x.shape}, expected {self._shape}")
        e = complex(sample.y) - np.vdot(st.w, x).__complex__()
        rho = self._rho
        shrink = None
        if self._penalty is not None:
            # complex_sign(0) = 0, so off K the penalty is exactly zero
            shrink = self._penalty(w, self._k, s)
            shrink *= self._k.rho
        e_conj = e.conjugate()
        c = self._mu * e_conj
        abs_c = math.hypot(c.real, c.imag)
        # the two bounds below are _step_bound's arithmetic, inlined
        rec.drift += (abs_c + rho) * _GROW + _DELTA * (rec.top + rec.drift) + _TINY
        c0 = self._c
        c0[()] = c
        v = w + c0 * x[kept]
        if shrink is not None:
            v -= shrink
        if not rec.support_kept(abs_c):
            self.certificate_runs += 1
            proof = _certified(v, c)
            if proof is None:
                if shrink is not None:
                    full = np.zeros_like(st.w)
                    full[kept] = shrink
                    shrink = full
                return self._general(sample, True, s, None, e, c, shrink)
            rec.margin, rec.top = proof
            rec.drift = 0.0
        self._w[kept] = v
        rec.value = v
        st.n += 1
        cnt = self._count
        if self._track:
            bound, beta = self._update_tracker(x, e_conj, True)
        if cnt is not None:
            # a certified step after a count on K: (c)
            xi = self._xi
            move = abs_c + rho
            if self._track:
                move += xi * ((bound + beta) / self._tracker.kappa + _DELTA * bound)
            cnt.drift += move * _GROW + _DELTA * (cnt.top + xi * self._bound) + _TINY
        self.last_s = s
        return e

    def _general(self, sample, active, s, mask, e=None, c=None, shrink=None) -> complex:
        """The dense rule, steps 2-5 of the module docstring, for budget s and
        mask; ``active`` is False in burn-in.  A support step whose proof
        failed passes the e, c and penalty it formed."""
        self.general_steps += 1
        st = self.state
        x = sample.x
        if e is None:
            # before the penalty, which reads the same w; sza's record reads e
            e = prediction_error(st, sample)
            if self._penalty is not None and (active or self._penalty_in_burn_in):
                if self._selective:
                    shrink = self._selective_penalty(st.w, s, e)
                else:
                    shrink = self._penalty(st.w, self._k, s)
                shrink *= self._k.rho
            c = self._mu * e.conjugate()
        unit = x.base is self._rows
        rec = self._rec
        if self._selective and rec is not None:
            inc = _step_bound(math.hypot(c.real, c.imag) + self._rho, rec.top + rec.drift)
        self._count = None
        w = self._w if st.w is self._ro else st.w
        c0 = self._c
        c0[()] = c
        w += c0 * x
        if shrink is not None:
            w -= shrink
        if active and self._project is not None:
            st.w = self._project(w, s, mask)
            if self._project is _top_s:
                self._own(st.w)
                cut = np.flatnonzero(st.w)
                self._rec = Record(cut, 0.0, -math.inf, value=st.w[cut])
        st.n += 1
        if self._track:
            self._update_tracker(x, e.conjugate(), unit)
        if self._selective and rec is not None:
            rec.drift += inc if unit else math.inf
        self.last_s = s
        return e
