"""Hard-threshold and selective-penalty operators, support tools, and the
executable forms of the two support-recovery theorems.

Magnitude comparisons use squared magnitudes throughout; ties are detected by
exact floating-point equality, and every coefficient tying with the s-th
largest magnitude is kept.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# complex_sign's least magnitude that divides, as numpy scalars: a Python
# float would be compared in a float32 magnitude's precision, where 5e-324
# rounds to 0.  A complex entry needs a magnitude in the normal range of its
# own precision; a real nonzero entry divides exactly.
_COMPLEX_FLOOR = {c: np.finfo(c).tiny for c in "FDG"}
_REAL_FLOOR = np.finfo(float).smallest_subnormal


def _sq_mag(v: np.ndarray) -> np.ndarray:
    return v.real * v.real + v.imag * v.imag


def _reject_non_finite(v: np.ndarray) -> None:
    """Raise ValueError naming the first NaN or infinite coefficient, if any;
    a stack names it by (row, ..., column)."""
    bad = np.argwhere(~np.isfinite(v))
    if bad.size:
        pos = tuple(int(i) for i in bad[0])
        where = pos[0] if len(pos) == 1 else pos
        raise ValueError(f"non-finite coefficient at position {where}: {v[pos]}")


def keep_mask(v, s) -> np.ndarray:
    """Boolean mask of the s largest-magnitude coefficients, all ties kept.

    Acts along the last axis, so a stack of shape (..., n) gives one mask per
    row; ``s`` is an int or an integer array with one budget per row.  Uses
    introselect partitioning, so expected cost is linear in n.  Raises
    ValueError naming the first NaN or infinite coefficient.
    """
    v = np.asarray(v)
    if v.ndim != 1 or isinstance(s, np.ndarray):
        return _keep_mask_rows(v, s)
    n = v.size
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= {n}, got s={s}")
    m2 = _sq_mag(v)
    # one dot product (cheaper than a reduction on short vectors) propagates any
    # NaN or inf; it also overflows for huge finite values, which pass
    if not math.isfinite(m2.dot(m2)):
        _reject_non_finite(v)
    if s == n:
        return np.ones(v.shape, dtype=bool)
    cut = np.partition(m2, n - s)[n - s]
    return m2 >= cut


def _keep_mask_rows(v: np.ndarray, s) -> np.ndarray:
    """keep_mask along the last axis with one budget per row: a single
    partition at every distinct cut position n - s, then one cut per row."""
    if v.ndim == 0:
        raise ValueError("keep_mask needs a vector or a stack of vectors")
    n = v.shape[-1]
    s = np.broadcast_to(s, v.shape[:-1])
    if s.dtype.kind not in "iu":
        raise TypeError(f"budgets must be integers, got dtype {s.dtype}")
    out_of_range = (s < 1) | (s > n)
    if out_of_range.any():
        row = tuple(int(i) for i in np.argwhere(out_of_range)[0])
        raise ValueError(f"need 1 <= s <= {n}, got s={s[row]} in row {row}")
    m2 = _sq_mag(v)
    if not math.isfinite(m2.sum()):
        _reject_non_finite(v)
    if m2.size == 0:
        return np.ones(v.shape, dtype=bool)
    at = (n - s)[..., None]
    distinct = np.flatnonzero(np.bincount(at.ravel()))  # sorted; cheaper than np.unique
    cut = np.take_along_axis(np.partition(m2, distinct, axis=-1), at, axis=-1)
    return m2 >= cut


def hard_threshold(v, s) -> np.ndarray:
    """Keep the s largest-magnitude coefficients (all ties kept), zero the rest;
    along the last axis, with ``s`` as in keep_mask."""
    v = np.asarray(v)
    return np.where(keep_mask(v, s), v, 0)


def complex_sign(v, mag=None):
    """Entry-wise x/|x|, with 0 at 0; ``mag``, when given, is np.abs(v).

    A NaN entry gets sign 0, and so does a finite entry whose magnitude
    overflows (x / inf); ``harness.run_trial``'s r-MSE ceiling reports an
    iterate that large.  A complex entry whose magnitude is below the normal
    range of its precision (under 2.2e-308 for complex128) gets sign 0 too.
    Every other complex128 sign has modulus at most 1 + 4u, u = 2^-53.  A
    scalar gives a numpy scalar, computed as an array.

    When every magnitude is at least the floor below, as for a dense iterate
    after its first step, the divide runs unmasked into a fresh array; the
    loop is the one the masked divide picks, so the bits are the same.
    """
    v = np.asarray(v)
    if mag is None:
        mag = np.abs(v)
    # numpy divides a complex entry by its magnitude m as (re, im) * (1/m),
    # and 1/m overflows for m below about 5.6e-309; below the normal range the
    # computed m is also too coarse for the 1 + 4u bound.  A real entry
    # divides exactly.  NaN fails the comparison, so it keeps its 0 like a
    # zero entry.
    floor = _COMPLEX_FLOOR[v.dtype.char] if v.dtype.kind == "c" else _REAL_FLOOR
    dtype = np.promote_types(v.dtype, float)
    # the least magnitude by argmin, which points at the first NaN and costs a
    # fraction of min()'s NaN-propagating reduction
    flat = mag.reshape(-1)
    if flat.size and flat[flat.argmin()] >= floor:  # a NaN fails it too
        out = np.divide(v, mag)
        if out.dtype != dtype:  # float32 or complex64: the masked path's cast
            out = out.astype(dtype)
    else:
        out = np.zeros(v.shape, dtype=dtype)
        np.divide(v, mag, out=out, where=mag >= floor)
    return out if out.ndim else out[()]


def selective_penalty(v, s: int, keep=None) -> np.ndarray:
    """Sign penalty on everything outside the hard-threshold support.

    Zero on support(H_s(v)), complex_sign(v_i) elsewhere; tie handling is
    inherited from hard_threshold.  ``keep``, when given, is keep_mask(v, s).
    """
    pen = complex_sign(v)
    pen[keep_mask(v, s) if keep is None else keep] = 0
    return pen


def support(v, tol: float = 0.0) -> frozenset[int]:
    """Positions with |v_i| > tol."""
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    v = np.asarray(v)
    return frozenset(int(i) for i in np.flatnonzero(np.abs(v) > tol))


def _complex_pair(w, w_hat):
    """w and w_hat as complex arrays; ValueError naming both shapes unless
    they are equal, so that no pair is broadcast."""
    w = np.asarray(w, dtype=complex)
    w_hat = np.asarray(w_hat, dtype=complex)
    if w.shape != w_hat.shape:
        raise ValueError(f"reference has shape {w.shape}, estimate has shape {w_hat.shape}")
    return w, w_hat


def ser(w, w_hat):
    """Signal-to-error ratio ||w||^2 / ||w - w_hat||^2 (+inf for exact match);
    a float for vectors, one value per row for stacks of shape (..., n)."""
    w, w_hat = _complex_pair(w, w_hat)
    sig = _sq_mag(w).sum(axis=-1)
    if not np.all(sig):
        raise ValueError("reference vector must be nonzero")
    err = _sq_mag(w - w_hat).sum(axis=-1)
    with np.errstate(divide="ignore"):
        out = sig / err
    return float(out) if np.ndim(out) == 0 else out


class TheoremCheck(NamedTuple):
    """Premise and conclusion of a theorem: bools for one vector, bool arrays
    with one entry per row for a stack."""

    premise: bool | np.ndarray
    conclusion: bool | np.ndarray


def _check(premise, conclusion) -> TheoremCheck:
    if np.ndim(premise) == 0:
        return TheoremCheck(bool(premise), bool(conclusion))
    return TheoremCheck(premise, conclusion)


def _sparse_stats(w: np.ndarray):
    """Number of nonzeros and squared minimum nonzero magnitude, per row."""
    m2 = _sq_mag(w)
    nz = m2 > 0
    s = np.count_nonzero(nz, axis=-1)
    if not np.all(s):
        raise ValueError("reference vector must be nonzero")
    return s, np.where(nz, m2, np.inf).min(axis=-1)


def theorem2_check(w, w_hat) -> TheoremCheck:
    """Exact support recovery: ||w - w_hat||^2 < q^2/2 forces H_s to find
    support(w), where s = ||w||_0 and q is the smallest nonzero magnitude.
    Stacks of shape (..., n) are checked row by row."""
    w, w_hat = _complex_pair(w, w_hat)
    s, q2 = _sparse_stats(w)
    premise = _sq_mag(w - w_hat).sum(axis=-1) < q2 / 2.0
    conclusion = ((hard_threshold(w_hat, s) != 0) == (w != 0)).all(axis=-1)
    return _check(premise, conclusion)


def theorem3_check(w, w_hat, tau) -> TheoremCheck:
    """Relaxed recovery with budget d = s + tau: error within
    q^2*(1 - 1/(tau+2)) and ||w_hat||_0 >= d force H_d's support to cover
    support(w).  Stacks of shape (..., n) are checked row by row; ``tau`` is
    an int or one value per row."""
    tau = np.asarray(tau)
    if np.any(tau < 1):
        raise ValueError("tau must be a positive integer")
    w, w_hat = _complex_pair(w, w_hat)
    s, q2 = _sparse_stats(w)
    d = s + tau
    n = w.shape[-1]
    if np.any(d >= n):
        raise ValueError(f"need s + tau < N, got {np.max(d)} >= {n}")
    err2 = _sq_mag(w - w_hat).sum(axis=-1)
    premise = (err2 <= q2 * (1.0 - 1.0 / (tau + 2.0))) & (
        np.count_nonzero(w_hat, axis=-1) >= d
    )
    conclusion = ((hard_threshold(w_hat, d) != 0) | (w == 0)).all(axis=-1)
    return _check(premise, conclusion)
