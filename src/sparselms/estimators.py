"""Single-sample online estimators: LMS and its six sparsity-aware variants.

Every variant is one update rule, w <- P(w + mu e* x - rho g(w)), with the
a-priori error e(n) = y(n) - w(n)^H x(n).  The signal is real, so the
spectrum is conjugate-symmetric and the estimator holds w, the tracker's
error and the rows on bins 0..N/2 alone (``sensing.half_size``): over the
full spectrum w^H x sums conj(w_k) x_k and its conjugate for each pair
{k, N - k}, so

    e = y - (2 Re sum_k conj(w_k) x_k - Re conj(w_0) x_0 - [N even] Re conj(w_m) x_m),

m = N/2, is real (``prediction_error``), and so are c = mu e and the
tracker's b = e x; the penalties are elementwise, and every step keeps the
iterate the half of a conjugate-symmetric spectrum.  Holding N/2 + 1 bins
instead of N halves every O(N) pass of a dense step: over the full spectrum,
exp3-shrinkage's benchmark steps per second were about 1.3x lower
(BENCH_23.json), exp2-budget's and exp4-tracking's about 1.1x.  A step runs,
in this order:

1. budget: the fixed ``s`` or the tracker's count, computed once from the
   pre-update iterate w(n);
2. penalty g(w(n)): none, za, rza, l0 or selective(s);
3. gradient step: w += (mu e*) x;
4. shrink: w -= rho g;
5. projection P: none or top-s (coefficients outside the kept set are exactly
   zero).

Budgets are in full-spectrum bins: s, the tracker's count and the range
[1, N].  The top-s cut (``_top_s``, and sza's set in ``_top_cut``) is
keep_mask's rule on the full spectrum's N squared magnitudes, the stored
ones with each interior bin's again for its mirror (``_mirrored``): the
threshold is the s-th largest, counting each interior bin twice, and every
tie is kept, so a pair is kept or cut whole (the dense rule over all N
bins split pairs at the cut, and held up to 2 and 7 unpaired bins on HARD-40
and HARD-80 at N = 1000; tests/test_half_spectrum.py runs it as the
oracle).  On an even s that falls between pairs, K holds s full bins; when
the s-th largest is the first copy of an interior bin (an odd s above no
self-conjugate bin), its pair ties with it and K holds s + 1; bin 0 and,
for even N, bin N/2 have one copy each and can make K's count odd.  The support path takes a budget
equal to K's full count W(K) (``Record.size``), or one less, where the cut
keeps K only while its least m2 has two copies: while no self-conjugate
bin of K is below K's least interior bin (``_spare_kept``).  sza's set
record is taken only at a strict gap, so W(K) = s.

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
bit for bit; the derivation is above ``Record``.  The support certificate
runs on 0.1% to 3.6% of the support-path steps of exp2's labels at
N = 1000: a record answers for it on the rest.

Deferred tracker updates.  After a count decided from |w[K]|, until the next
exact count or full query, a tracked step on a unit row appends (x, e) to a
pending list and advances kappa and B in O(1).  Every read of the error (the
full query, an exact count and ``Estimator.tracker``) first replays the
pending updates in order, from the kappa before the first, each through
``tracker_update`` as an eager step makes it, so err and kappa are the eager
rule's bits, and a wrapper of ``tracker_update`` (perfbench's tracer) sees
every update.  A step whose row is not a unit row, or whose e or B is too
large for the update to be free of overflow, updates eagerly, so a warning
or a NaN shows at its own step.  After burn-in, exp2's and exp3's HARD-EST
and HARD-L0 read the error in full once, and most of their updates are
never replayed.

Two bodies.  ``Estimator.step`` runs the support step when the last top-s
cut's record is on ``state.w``, the row is a unit row and the budget is |K|
(a fixed s, or the tracker's count read from K): every step of hard and
hard_l0 once their support has settled, which is 78% of the steps of the
exp2-budget benchmark workload, 96% of exp4-tracking's and 33% of
exp3-shrinkage's (seed 0, unit 0, N = 1000).  It updates w[K] alone, in
straight line, and skips the O(N) update, the cut and every branch of the other
variants.  Any other step, and a support step whose certificate fails, which
has stored nothing, runs the general body: the dense rule above.  Both end
on ``_update_tracker``.

Unit rows.  The bounds below need every computed |x_k|^2 <= 1 + 4u.  An
estimator takes the table of rows on the stored bins that meet it from
``sensing.unit_rows`` once, when it is built, and a step's row is a unit row
when it is a view of that table (``x.base is self._rows``, about 20 ns), as
the table's rows that ``make_stream`` yields are.  Any other row takes the dense rule,
and makes the bounds it would advance infinite; so does a row of a table
that ``fourier_rows`` rebuilt after its cache dropped the estimator's.
``run_trial`` builds its estimator and its streams from one cached table, so
no run meets one.

The scalars of a step (e, c = mu e and the bounds) are Python floats:
``prediction_error`` forms e from the complex128 dot and the end bins'
products in Python floats.  The dot is numpy's C vdot (``_vdot``), called
without np.vdot's ``__array_function__`` dispatcher.  A support step whose
K holds neither bin 0 nor, for even N, bin N/2, and whose y is a nonzero
Python float, forms e = y - 2 Re(w^H x) from the dot alone and reads no
end bin: off K w is zero, so each end term is a zero of either sign, and
subtracting it changes at most the sign of a zero sum, which reaches e
only when y is itself a zero.  The dot still runs over the whole row: over
K alone it rounds differently.  ``make_stream`` gives y as a Python float, once
per window; a y of another real type is converted exactly, and a complex y
whose imaginary part is not zero raises a ValueError naming y.

complex128 and 0-d operands.  The iterate and the tracker's err are
complex128: ``prediction_error``, which every step on an assigned
``state.w`` runs, and ``TrackerState`` raise a ValueError naming the field
for any other dtype.  Each scalar a step passes to numpy is a preallocated
0-d array, assigned once per step: c in c x, e in the tracker's b = e x,
and rho (complex128), epsilon, the 1 of 1 + epsilon |w| and -beta (float64)
in the penalty and its weight (``_Scalars``); ``tracker_update`` does the
same with 1 - 1/kappa and 1/kappa.  numpy converts a Python scalar on every
call, which costs 0.08-0.15 us; against complex128 and float64 arrays the 0-d
array gives the same bits.  A row of another dtype (complex64, float32) meets
a complex128 operand, so numpy widens it exactly, and the step gives the bits
of its complex128 copy.

Shapes.  ``prediction_error`` checks the iterate's shape and the row's
against (N//2 + 1,) on the general body; the support step checks the row's,
since state.w then holds the record.  A full row of length N raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import full_count, half_size, paired_bins, unit_rows
from .sparse_ops import complex_sign, hard_threshold, keep_mask, selective_penalty
from .tracker import (
    TrackerParams,
    TrackerState,
    clamp_budget,
    estimate_sparsity,
    make_tracker,
    occupancy_mask,  # unused here; perfbench's tracer wraps this binding
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
# variants that end a step with a top-s cut
PROJECTED = frozenset(("hard", "hard_l0"))


def reads_tracker(config: "EstimatorConfig") -> bool:
    """True when the budget of this variant queries the tracker: a
    thresholded variant without a fixed s."""
    return config.variant in THRESHOLDED and config.s is None


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


def check_window(config: EstimatorConfig, n: int, tracked: bool, where: str = "") -> None:
    """Raise ValueError unless ``config`` can run at window length N, with a
    tracker when ``tracked``: 1 <= s <= N, a thresholded variant has a fixed
    s or a tracker, and 0 < mu N < 2.  ``where`` names the algorithm in a
    spec, such as ``algorithms[0]``, and the message then starts with the
    field's path."""

    def fail(field, message):
        raise ValueError(f"{where}.{field}: {message}" if where else message)

    if config.s is not None and not 1 <= config.s <= n:
        fail("estimator.s", f"need 1 <= s <= {n}, got s={config.s}")
    if config.variant in THRESHOLDED and config.s is None and not tracked:
        fail("tracker", f"{config.variant} needs a fixed s or a tracker")
    # the a-posteriori error is e (1 - mu |x|^2), and |x|^2 = N for unit rows
    if not 0.0 < config.mu * n < 2.0:
        fail("estimator.mu", f"step size must satisfy 0 < mu*N < 2, got mu={config.mu}, N={n},"
                             f" mu*N={config.mu * n}")


@dataclass
class EstimatorState:
    w: np.ndarray
    n: int = 0

    @classmethod
    def zeros(cls, n_dim: int) -> "EstimatorState":
        return cls(w=np.zeros(n_dim, dtype=complex))


def _real(y) -> float:
    """y as a Python float; a y whose imaginary part is not zero (NaN
    included) raises ValueError naming y."""
    if y.imag != 0:
        raise ValueError(f"y has a nonzero imaginary part, got {y!r}; a real signal's samples are real")
    return float(y.real)


# numpy's C vdot, without the __array_function__ dispatcher that np.vdot
# runs on every call (about 0.15-0.2 us); the same function, so the same bits
_vdot = getattr(np.vdot, "_implementation", np.vdot)


def _error(w, x, y, even) -> float:
    """e = y - w^H x over the full spectrum, from the stored bins 0..N/2 of a
    conjugate-symmetric w and x: each interior bin's term counts twice,
    Re conj(w_0) x_0 and, for even N, Re conj(w_m) x_m once.

    The dot is numpy's complex128 vdot over all stored bins (``_vdot``),
    converted with its own ``__complex__``; the end bins' terms are Python
    complex products, and the sum is formed in that order.
    """
    wx = 2.0 * _vdot(w, x).__complex__().real - (w.item(0).conjugate() * x.item(0)).real
    if even:
        wx -= (w.item(-1).conjugate() * x.item(-1)).real
    return y - wx


def prediction_error(state: EstimatorState, sample, n: int) -> float:
    """e(n) = y(n) - w(n)^H x(n) for window length N, a Python float.

    ``state.w`` and the row hold bins 0..N/2 (``sensing.half_size``) of the
    conjugate-symmetric spectrum and a row of it; ``state.w`` must be
    complex128 (native byte order), and a row of another dtype is widened
    exactly.  Either of another shape, or an iterate of another dtype,
    raises ValueError naming it, and so does a complex y whose imaginary part
    is not zero (``_error`` gives the arithmetic).
    """
    return _checked_error(state.w, sample, (half_size(n),), n % 2 == 0)


def _checked_error(w, sample, shape, even) -> float:
    """prediction_error on the iterate w, with the stored bins' shape."""
    if w.dtype != _C128:
        raise ValueError(f"state.w has dtype {w.dtype}, expected complex128")
    if w.shape != shape:
        raise ValueError(f"state.w has shape {w.shape}, expected {shape}")
    x, y = sample.x, sample.y
    if x.shape != shape:
        raise ValueError(f"regressor has shape {x.shape}, expected {shape}")
    return _error(w, x, y if type(y) is float else _real(y), even)


# -- penalties g(w, k) ---------------------------------------------------------
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


def _za(w, k):
    """Uniform zero attraction: sgn(w)."""
    return complex_sign(w)


def _rza(w, k):
    """Reweighted attraction: sgn(w) / (1 + epsilon |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
    weight *= k.epsilon
    weight += k.one
    g /= weight
    return g


def _l0(w, k):
    """Smoothed-l0 attraction: sgn(w) * exp(-beta |w|)."""
    weight = np.abs(w)
    g = complex_sign(w, weight)
    weight *= k.neg_beta
    np.exp(weight, out=weight)
    g *= weight
    return g


# sza's penalty, the sign off its top-s set, is Estimator._selective_penalty
_PENALTY = {"za": _za, "rza": _rza, "l0": _l0, "hard_l0": _l0}

# -- projection P(w, s, n) -----------------------------------------------------


def _mirrored(w, n):
    """The full spectrum's N entries up to conjugation, whose magnitudes are
    all a top-s cut reads: w's stored bins, then its paired bins again for
    their mirrors."""
    return np.concatenate((w, w[paired_bins(n)]))


def _top_s(w, s, n):
    """hard_threshold over the full spectrum, on the stored bins: pair-closed."""
    return hard_threshold(_mirrored(w, n), s)[:w.size]


# -- records -------------------------------------------------------------------
#
# u = 2^-53, r = sqrt(_TINY), and m2 = fl(re^2 + im^2) as in keep_mask, which
# is |v|^2 within a relative 3u, or an absolute _TINY below the normal range.
# Unit rows (sensing.unit_rows) have computed |x_k|^2 <= 1 + 4u, so
# |x_k| <= 1 + 3u.  K and every bound below are on the stored bins 0..N/2.  A
# cut reads the full spectrum's N squares, in which each stored bin's m2
# appears once or twice (weight 2 on interior bins, 1 on bin 0 and, for even
# N, bin N/2), so an argument that places each m2 of K above each m2 off K
# places the N squares the same way; and a count is a sum of weights over
# per-bin tests, so an argument that keeps each bin's test keeps the count.
# c = mu e and e are real; the bounds below hold for any complex c and e.
#
# Off K.  After a top-s cut w is zero off K, so off K the next dense update
# holds fl(c x_k), c = a + ib.  With c2 = fl(a^2 + b^2):
#   |fl(c x_k)| <= |c| |x_k| (1 + sqrt(2) gamma_2) <= |c| (1 + 5.9u)  (Higham 3.5),
#   m2(fl(c x_k)) <= |fl(c x_k)|^2 (1 + u)^2 <= |c|^2 (1 + 13.7u),
#   |c|^2 <= c2 / (1 - u)^2 <= c2 (1 + 2.1u),
# so every off-K m2 is at most c2 (1 + 16u), about 1.8e-15 relative.  _DELTA
# leaves a wide margin over that and over the comparison's own rounding, and
# _TINY covers squares below the normal range.  If min m2(v) on K beats the
# bound (_certified), the W(K) largest of the N squares of the dense update
# are K's, W(K) = Record.size the weight sum of K; with s = W(K) the s-th
# largest is K's least m2, and the cut returns K.
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
# other m2 <= lo < hi (no tie among the N squares, so W(K) = s and no pair is
# split) records top = sqrt(max m2) + r.  Every
# |w_k| on K is at least sqrt(hi)(1 - 2u) - r, every other at most
# sqrt(lo)(1 + 2u) + r, all at most top, up to a relative 2u.  After a drift D
# the computed m2 keep that order, and keep_mask(w, s) returns K, when
#   2D + _DELTA D < gap = sqrt(hi) - sqrt(lo) - _DELTA top - 8 r
# (terms relative to top cover the roundings of the square roots and of gap).
#
# (c) Count reusable.  A tracker budget counts sum {weight_k : a_k > q*}, a_k
# the computed |w_k - xi err_k|.  On the cut's array, while (d) shows that no
# entry off K passes, support_count over K is the full count; it also gives the slack
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
# spare: every a_k stays on its side of q*, and so does the weighted count.
# A NaN sigma, B or D fails every comparison.
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
# away: the count over K is sum {weight_k : m_k > q*}, and err is not read.  The excess is
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
    the support's w[K], or the count.  On a cut's record, ``size`` is K's
    count of full-spectrum bins, and ``inner`` the positions in K of its
    paired bins (``sensing.paired_bins``).
    """

    kept: np.ndarray
    top: float
    margin: float
    drift: float = 0.0
    value: object = None
    size: int = 0
    inner: slice | None = None

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


def _top_cut(w, s, n):
    """keep_mask(_mirrored(w, n), s) on the stored bins, from one partition,
    and the record of that cut when K is separated by a strict gap, else
    None."""
    m2 = w.real * w.real + w.imag * w.imag
    # keep_mask's own check: it names a NaN or inf, and a huge finite w, whose
    # squares may overflow, keeps no record
    if s == n or not math.isfinite(m2.dot(m2)):
        return keep_mask(_mirrored(w, n), s)[:w.size], None
    part = np.partition(_mirrored(m2, n), sorted({n - s - 1, n - s, n - 1}))
    lo, hi = part[n - s - 1], part[n - s]
    keep = m2 >= hi  # keep_mask's cut: hi is its (n - s)-th order statistic
    if not lo < hi:
        return keep, None
    top = math.sqrt(part[n - 1]) + _ROOT_TINY
    gap = math.sqrt(hi) - math.sqrt(lo) - _DELTA * top - 8.0 * _ROOT_TINY
    # exactly s of the N squares are >= hi, so K's full count is s
    return keep, Record(np.flatnonzero(keep), top, gap, size=s)


def _cut_record(kept, value, n):
    """The record of a top-s cut that kept the sorted stored bins K, with
    nothing proved yet."""
    inner = paired_bins(n, kept)
    size = kept.size + (inner.stop - inner.start)  # paired bins count twice
    return Record(kept, 0.0, -math.inf, value=value, size=size, inner=inner)


def _support(rec, s, unit):
    """K of the last top-s cut when the support path may be tried, else None:
    the row is a unit row and K's full count is s or s + 1."""
    if rec is None or not unit or not 0 <= rec.size - s <= 1:
        return None
    return rec.kept


def _spare_kept(v, inner):
    """For a budget one below K's full count: the cut keeps all of K when its
    least m2 has two copies, which holds while no self-conjugate bin of K
    (outside ``inner``) is below K's least interior m2.  NaN fails."""
    m2 = v.real * v.real + v.imag * v.imag
    least = m2[inner].min(initial=math.inf)
    ends = np.concatenate((m2[:inner.start], m2[inner.stop:]))
    return bool(least <= ends.min(initial=math.inf))


def _budget_support(rec, params, bound):
    """K of the last top-s cut when the tracker's count may be read from K, else
    None: no entry off K passes, by (d) with B = ``bound``."""
    if rec is None or not _step_bound(params.xi * bound, 0.0) < params.q_star:
        return None
    return rec.kept


def _count_by_bound(v, kept, n, q_star, reach):
    """(e): the full-spectrum count over K, of the bins with |v_k| > q*, and
    its slack, the smallest |v_k| - q* in magnitude less ``reach`` =
    _step_bound(xi B, q*), when that slack is positive; else None."""
    above = np.abs(v)
    above -= q_star  # fl(m - q*) > 0 exactly when m > q*
    slack = float(np.abs(above).min(initial=math.inf)) * (1.0 - _DELTA) - reach
    if not (slack > 0.0 and q_star < _ROOT_MAX):  # a NaN slack fails
        return None
    return full_count(n, above > 0.0, kept), slack


class Estimator:
    """Drives one update rule over a measurement stream.

    Burn-in (the first ``config.burn_in`` samples) skips both the penalty and
    the projection, so every variant runs plain LMS, with one exception:
    hard_l0 keeps its l0 penalty during burn-in (exp3's HARD-L0 curve depends
    on it).  When ``config.s`` is None the budget is supplied each step by the
    tracker, which consumes the update direction b(n) the step already
    computed.  A tracker that no budget reads, or whose ``xi`` is 0, is not
    updated.

    ``n_dim`` is the window length N; ``state.w`` and the tracker's err hold
    bins 0..N/2, and a row must too.  A row is a unit row, which the
    certificates need, when it is a view of the table ``unit_rows`` gave
    when the estimator was built; any other row takes the dense rule.  Next to its records the estimator holds B, the
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
    step also runs, on the same sample, when its certificate fails.
    ``general_steps`` counts the steps that ran it.

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
        "certificate_runs", "_tracker", "_rows", "_n", "_even", "_shape", "_mu", "_rho",
        "_k", "_c", "_e", "_cx",
        "_burn_in", "_penalty", "_selective", "_penalty_in_burn_in",
        "_rec", "_count", "_ro", "_w", "_bound", "_err", "_pending", "_es",
        "_kappa0", "_defer", "_s", "_budget", "_cut", "_track", "_xi", "_lam",
    )

    def __init__(
        self,
        config: EstimatorConfig,
        n_dim: int,
        tracker_params: TrackerParams | None = None,
    ):
        check_window(config, n_dim, tracker_params is not None)
        self.config = config
        self.state = EstimatorState.zeros(half_size(n_dim))
        self._tracker: TrackerState | None = None
        if tracker_params is not None:
            self._tracker = make_tracker(tracker_params, n_dim)
        variant = config.variant
        self.last_s: int | None = None
        rows = unit_rows(n_dim)
        self._rows = object() if rows is None else rows  # no row's base is an object()
        self._n, self._even = n_dim, n_dim % 2 == 0
        self._shape = self.state.w.shape

        self._mu = float(config.mu)
        self._rho = rho = config.rho if "rho" in READS[variant] else 0.0
        # the penalty's scalars, and the 0-d operands of c and e (the module
        # docstring's "complex128 and 0-d operands")
        self._k = _Scalars(rho, config.epsilon, config.beta)
        self._c, self._e = np.empty((), dtype=complex), np.empty((), dtype=complex)
        self._cx = np.empty_like(self.state.w)  # c x of a dense step
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
        # the deferred tracker updates: their rows, their e and the kappa
        # before the first.  _defer is set by a count decided by (e), and
        # cleared by a read of err
        self._pending, self._es = [], []
        self._kappa0 = 0.0
        self._defer = False
        self.full_queries = self.exact_counts = self.bound_counts = self.reused_counts = 0
        self.deferred_updates = self.replayed_updates = 0
        self.general_steps = self.certificate_runs = 0
        # the budget: the fixed s, or the tracker's count when _budget is set
        self._s = config.s if variant in THRESHOLDED else None
        self._budget = reads_tracker(config)
        self._cut = variant in PROJECTED
        # a budget reads err only through |w - xi err|, which is |w| when xi = 0
        # and err is finite.  err turns non-finite only when b = e* x overflows
        # in a diverged run; the NaN that 0 err then puts in w - 0 err is not
        # reproduced.
        self._track = tracker_params is not None and tracker_params.xi != 0.0 and self._budget
        self._xi = 0.0 if tracker_params is None else tracker_params.xi
        self._lam = 0.0 if tracker_params is None else tracker_params.lam

    @property
    def tracker(self) -> TrackerState | None:
        """The tracker's state, with every deferred update applied.  The
        updates deferred before an err was assigned are the replaced err's,
        and are dropped, as the next step drops them."""
        if self._pending:
            if self._tracker.err is self._err:
                self._replay()
            else:
                self._drop_pending()
        return self._tracker

    def _replay(self):
        """Apply the deferred updates in order, from the kappa before the
        first, each as ``_update_tracker``'s eager branch applies one: the
        eager rule's bits, and kappa ends where the steps left it."""
        tr, e0 = self._tracker, self._e
        tr.kappa = self._kappa0
        for x, e in zip(self._pending, self._es):
            e0[()] = e
            tracker_update(tr, np.multiply(e0, x, out=tr.work))
        self.replayed_updates += len(self._pending)
        self._drop_pending()

    def _drop_pending(self):
        self._pending.clear()
        self._es.clear()

    def _read_err(self):
        """Before a budget reads err: replay, and update eagerly from now on."""
        if self._pending:
            self._replay()
        self._defer = False

    def _defer_update(self, x, e):
        """Defer this step's tracker update, advancing kappa as it would."""
        tr = self._tracker
        if not self._pending:
            self._kappa0 = tr.kappa
        self._pending.append(x)
        self._es.append(e)
        tr.kappa = self._lam * tr.kappa + 1.0
        self.deferred_updates += 1

    def _update_tracker(self, x, e, unit):
        """The tracker update with b = e x (e is real, so e* = e), deferred or
        eager, and (d)'s advance of B.  Returns B before the update, and
        beta."""
        tr = self._tracker
        bound = self._bound
        beta = abs(e) * _GROW if unit else math.inf
        if self._defer and beta + bound < _ROOT_MAX:  # no overflow: NaN fails
            self._defer_update(x, e)
        else:
            if self._pending:
                self._replay()
            # b = e x, formed in the tracker's work array
            e0 = self._e
            e0[()] = e
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
        """(K, w[K]) when ``state.w`` is known to be zero off K, else None; K
        holds stored bins, 0..N/2.

        That holds while the record of the last top-s cut is on ``state.w``:
        after each cut of hard or hard_l0 and each certified step.  Dense
        variants, sza (its record is on a dense iterate) and an assigned
        ``state.w`` give None.  Neither array changes afterwards: a certified
        step stores a new w[K].
        """
        rec = self._rec
        if not self._cut or rec is None or self.state.w is not self._ro:
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
            return s
        rec = self._count
        if rec is not None and rec.count_reusable():
            self.reused_counts += 1
            return rec.value
        reach = _step_bound(p.xi * self._bound, p.q_star)
        decided = None
        if reach < _E_REACH * p.q_star:
            # the cut's w[K]
            decided = _count_by_bound(self._rec.value, kept, self._n, p.q_star, reach)
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
        self._count = Record(kept, top, slack, drift, clamp_budget(count, self._n))
        return self._count.value

    def _selective_penalty(self, w, s, e):
        """sza's penalty: the sign of w off its top-s set, zero on it."""
        rec = self._rec
        if rec is None or rec.size != s or not math.isfinite(e) or not rec.set_kept():
            keep, self._rec = _top_cut(w, s, self._n)
            if self._rec is not None:
                self._own(w)
            return selective_penalty(w, s, keep)
        pen = complex_sign(w)
        pen[rec.kept] = 0
        return pen

    def step(self, sample) -> float:
        """Take one sample and return its a-priori error e(n), a real float.

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
            return self._general(sample, False, None)
        s = self._tracker_budget(st.w) if self._budget else self._s
        if self._cut:
            kept = _support(self._rec, s, sample.x.base is self._rows)
            if kept is not None:
                return self._support_step(sample, kept, s)
        return self._general(sample, True, s)

    def _support_step(self, sample, kept, s) -> float:
        """A step of hard or hard_l0 on K alone: v = w[K] + c x[K] - rho g(w[K]),
        stored when (a) or ``_certified`` proves that the top-s cut returns K
        (with ``_spare_kept`` for a budget one below K's full count).

        It makes the general body's numpy calls on K, in its order, then the
        tracker update and the count's drift (c).  A failed proof, before
        which nothing is stored, runs the general body on the same w."""
        st = self.state
        rec = self._rec
        w = rec.value
        x = sample.x
        # prediction_error, inlined: state.w holds the record, so its dtype
        # and shape are the estimator's
        if x.shape != self._shape:
            raise ValueError(f"regressor has shape {x.shape}, expected {self._shape}")
        y = sample.y
        if type(y) is float and y != 0.0 and rec.size == 2 * kept.size:
            # K holds neither end bin (each of its bins counts twice), so
            # _error's end terms are zeros: e from the dot alone has its bits
            e = y - 2.0 * _vdot(st.w, x).__complex__().real
        else:
            e = _error(st.w, x, y if type(y) is float else _real(y), self._even)
        rho = self._rho
        shrink = None
        if self._penalty is not None:
            # complex_sign(0) = 0, so off K the penalty is exactly zero
            shrink = self._penalty(w, self._k)
            shrink *= self._k.rho
        c = self._mu * e
        abs_c = abs(c)
        # the two bounds below are _step_bound's arithmetic, inlined
        rec.drift += (abs_c + rho) * _GROW + _DELTA * (rec.top + rec.drift) + _TINY
        c0 = self._c
        c0[()] = c
        v = w + c0 * x[kept]
        if shrink is not None:
            v -= shrink
        proof = True
        if not rec.support_kept(abs_c):
            self.certificate_runs += 1
            proof = _certified(v, c)
            if proof is not None:
                rec.margin, rec.top = proof
                rec.drift = 0.0
        if proof is None or (rec.size != s and not _spare_kept(v, rec.inner)):
            return self._general(sample, True, s)
        self._w[kept] = v
        rec.value = v
        st.n += 1
        cnt = self._count
        if self._track:
            bound, beta = self._update_tracker(x, e, True)
        if cnt is not None:
            # a certified step after a count on K: (c)
            xi = self._xi
            move = abs_c + rho
            if self._track:
                move += xi * ((bound + beta) / self._tracker.kappa + _DELTA * bound)
            cnt.drift += move * _GROW + _DELTA * (cnt.top + xi * self._bound) + _TINY
        self.last_s = s
        return e

    def _general(self, sample, active, s) -> float:
        """The dense rule, steps 2-5 of the module docstring, for budget s;
        ``active`` is False in burn-in."""
        self.general_steps += 1
        st = self.state
        x = sample.x
        # before the penalty, which reads the same w; sza's record reads e
        e = _checked_error(st.w, sample, self._shape, self._even)
        shrink = None
        if self._selective:
            if active:
                shrink = self._selective_penalty(st.w, s, e)
        elif self._penalty is not None and (active or self._penalty_in_burn_in):
            shrink = self._penalty(st.w, self._k)
        if shrink is not None:
            shrink *= self._k.rho
        c = self._mu * e
        unit = x.base is self._rows
        rec = self._rec
        if self._selective and rec is not None:
            inc = _step_bound(abs(c) + self._rho, rec.top + rec.drift)
        self._count = None
        w = self._w if st.w is self._ro else st.w
        c0 = self._c
        c0[()] = c
        w += np.multiply(c0, x, out=self._cx)
        if shrink is not None:
            w -= shrink
        if active and self._cut:
            st.w = _top_s(w, s, self._n)
            self._own(st.w)
            cut = np.flatnonzero(st.w)
            self._rec = _cut_record(cut, st.w[cut], self._n)
        st.n += 1
        if self._track:
            self._update_tracker(x, e, unit)
        if self._selective and rec is not None:
            rec.drift += inc if unit else math.inf
        self.last_s = s
        return e
