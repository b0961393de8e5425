"""The dense update rule over all N bins of the spectrum: the test oracle of
the estimators, which hold bins 0..N/2 alone.

``FullSpectrum`` is the rule as it runs on an N-long iterate: the complex
a-priori error e = y - w^H x, c = mu e*, the elementwise penalties, the
top-s cut of keep_mask over the N bins (which may split a conjugate pair),
and the tracker's N-long error with an unweighted count.  It shares no step
code with ``sparselms.estimators``; it reads only the generic keep_mask of
``sparse_ops``.
"""

from __future__ import annotations

import numpy as np

from sparselms.sensing import fourier_rows, half_size, regressor_row
from sparselms.sparse_ops import keep_mask


def _sign(w):
    mag = np.abs(w)
    out = np.zeros_like(w)
    nz = mag >= np.finfo(float).tiny
    out[nz] = w[nz] / mag[nz]
    return out


class FullSpectrum:
    """One estimator's dense rule on N bins, with its tracker."""

    def __init__(self, config, n, params=None):
        self.cfg, self.n, self.params = config, n, params
        self.w = np.zeros(n, dtype=complex)
        self.err = np.zeros(n, dtype=complex)
        self.kappa = 0.0
        self.steps = 0
        self.last_s = None
        self.cut = None  # the last top-s set over N bins, a keep mask
        thresholded = config.variant in ("sza", "hard", "hard_l0")
        self.counts = thresholded and config.s is None
        self.tracked = params is not None and params.xi != 0.0 and self.counts

    def step(self, x, y):
        """One step on the full row x; returns e (complex)."""
        cfg, w = self.cfg, self.w
        active = self.steps >= cfg.burn_in
        s = cfg.s
        if active and self.counts:
            passing = np.abs(w - self.params.xi * self.err) > self.params.q_star
            s = min(max(int(np.count_nonzero(passing)), 1), self.n)
        e = complex(y) - np.vdot(w, x)
        g = None
        v = cfg.variant
        if active or v == "hard_l0":  # hard_l0 keeps its penalty in burn-in
            if v == "za":
                g = _sign(w)
            elif v == "rza":
                g = _sign(w) / (1.0 + cfg.epsilon * np.abs(w))
            elif v in ("l0", "hard_l0"):
                g = _sign(w) * np.exp(-cfg.beta * np.abs(w))
            elif v == "sza":
                g = _sign(w)
                self.cut = keep_mask(w, s)
                g[self.cut] = 0
        w = w + cfg.mu * e.conjugate() * x
        if g is not None:
            w = w - cfg.rho * g
        if active and v in ("hard", "hard_l0"):
            self.cut = keep_mask(w, s)
            w = np.where(self.cut, w, 0)
        self.w = w
        if self.tracked:
            self.kappa = self.params.lam * self.kappa + 1.0
            inv = 1.0 / self.kappa
            self.err = (1.0 - inv) * self.err - inv * (e.conjugate() * x)
        self.steps += 1
        self.last_s = s if active else None
        return e


def full_row(x):
    """The full row, ``regressor_row``, whose bins 0..N/2 are the
    ``fourier_rows`` row x."""
    table = x.base
    n = table.shape[0]
    t = (x.ctypes.data - table.ctypes.data) // table.strides[0]
    assert table is fourier_rows(n) and x.shape == (half_size(n),)
    return regressor_row(n, t)


def mirrored(w, n):
    """The full spectrum whose bins 0..N/2 are w: conj(w_{N-k}) above N/2."""
    return np.concatenate((w, np.conj(w[1:n - w.size + 1])[::-1]))


def split_pair(w):
    """True when the nonzero set of the N-long w (or a keep mask) is not
    closed under k -> N - k; False for None."""
    if w is None:
        return False
    n = w.size
    nz = w != 0
    return bool((nz != nz[(-np.arange(n)) % n]).any())
