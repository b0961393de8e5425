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


def _sq_mag(v: np.ndarray) -> np.ndarray:
    return v.real * v.real + v.imag * v.imag


def keep_mask(v, s: int) -> np.ndarray:
    """Boolean mask of the s largest-magnitude coefficients, all ties kept.

    Uses introselect partitioning, so expected cost is linear in len(v).
    Raises ValueError naming the first NaN or infinite coefficient.
    """
    v = np.asarray(v)
    n = v.size
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= {n}, got s={s}")
    m2 = _sq_mag(v)
    # one dot product (cheaper than a reduction on short vectors) propagates any
    # NaN or inf; it also overflows for huge finite values, which pass
    if not math.isfinite(m2.dot(m2)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"non-finite coefficient at position {i}: {v.flat[i]}")
    if s == n:
        return np.ones(v.shape, dtype=bool)
    cut = np.partition(m2, n - s)[n - s]
    return m2 >= cut


def hard_threshold(v, s: int) -> np.ndarray:
    """Keep the s largest-magnitude coefficients (all ties kept), zero the rest."""
    v = np.asarray(v)
    return np.where(keep_mask(v, s), v, 0)


def complex_sign(v):
    """Entry-wise x/|x|, with 0 at 0."""
    if np.ndim(v) == 0:
        m = abs(v)
        return v / m if m > 0 else v * 0
    v = np.asarray(v)
    mag = np.abs(v)
    out = np.zeros(v.shape, dtype=np.result_type(v.dtype, float))
    nz = mag > 0
    out[nz] = v[nz] / mag[nz]
    return out


def selective_penalty(v, s: int) -> np.ndarray:
    """Sign penalty on everything outside the hard-threshold support.

    Zero on support(H_s(v)), complex_sign(v_i) elsewhere; tie handling is
    inherited from hard_threshold.
    """
    pen = complex_sign(v)
    pen[keep_mask(v, s)] = 0
    return pen


def support(v, tol: float = 0.0) -> frozenset[int]:
    """Positions with |v_i| > tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    v = np.asarray(v)
    return frozenset(int(i) for i in np.flatnonzero(np.abs(v) > tol))


def ser(w, w_hat) -> float:
    """Signal-to-error ratio ||w||^2 / ||w - w_hat||^2 (+inf for exact match)."""
    w = np.asarray(w, dtype=complex)
    w_hat = np.asarray(w_hat, dtype=complex)
    sig = float(_sq_mag(w).sum())
    if sig == 0.0:
        raise ValueError("reference vector must be nonzero")
    err = float(_sq_mag(w - w_hat).sum())
    if err == 0.0:
        return math.inf
    return sig / err


class TheoremCheck(NamedTuple):
    premise: bool
    conclusion: bool


def _sparse_stats(w: np.ndarray) -> tuple[int, float]:
    """(number of nonzeros, squared minimum nonzero magnitude)."""
    m2 = _sq_mag(w)
    nz = m2 > 0
    s = int(np.count_nonzero(nz))
    if s == 0:
        raise ValueError("reference vector must be nonzero")
    return s, float(m2[nz].min())


def theorem2_check(w, w_hat) -> TheoremCheck:
    """Exact support recovery: ||w - w_hat||^2 < q^2/2 forces H_s to find
    support(w), where s = ||w||_0 and q is the smallest nonzero magnitude."""
    w = np.asarray(w, dtype=complex)
    w_hat = np.asarray(w_hat, dtype=complex)
    s, q2 = _sparse_stats(w)
    err2 = float(_sq_mag(w - w_hat).sum())
    premise = err2 < q2 / 2.0
    conclusion = support(hard_threshold(w_hat, s)) == support(w)
    return TheoremCheck(premise, conclusion)


def theorem3_check(w, w_hat, tau: int) -> TheoremCheck:
    """Relaxed recovery with budget d = s + tau: error within
    q^2*(1 - 1/(tau+2)) and ||w_hat||_0 >= d force H_d's support to cover
    support(w)."""
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    w = np.asarray(w, dtype=complex)
    w_hat = np.asarray(w_hat, dtype=complex)
    s, q2 = _sparse_stats(w)
    d = s + tau
    if d >= w.size:
        raise ValueError(f"need s + tau < N, got {d} >= {w.size}")
    err2 = float(_sq_mag(w - w_hat).sum())
    premise = err2 <= q2 * (1.0 - 1.0 / (tau + 2.0)) and np.count_nonzero(w_hat) >= d
    conclusion = support(hard_threshold(w_hat, d)) >= support(w)
    return TheoremCheck(premise, bool(conclusion))
