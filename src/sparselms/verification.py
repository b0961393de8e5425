"""Randomized property suites and brute-force cross-checks.

The reference routines here deliberately avoid the library's own code paths:
the top-k reference ranks by pairwise magnitude counting, and the sensing
identity is accumulated as an explicit sum of outer products.

The randomized suites draw BLOCK draws at a time from one generator: first
each draw's length n and integer parameters as arrays, then, for each length
in the block, the vectors of that length's draws as one stack, which the
suite checks at once.  A suite is deterministic for a seed, and holds at
most one block of draws at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Estimator, EstimatorConfig
from .sensing import SensingConfig, Windowed, half_size, make_stream, regressor_row
from .signals import SignalSpec, multisine, noise_std, signal_power, true_spectrum
from .sparse_ops import hard_threshold, ser, theorem2_check, theorem3_check


@dataclass
class SuiteResult:
    name: str
    draws: int
    failures: int
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        msg = f"{self.name}: {self.draws} draws, {self.failures} failures [{status}]"
        for note in self.notes:
            msg += f"\n  {note}"
        return msg


BLOCK = 1024  # draws made and checked together; bounds the held draws

MAGNITUDES = (0.3, 2.0)  # a sparse vector's nonzero magnitudes are uniform here
PHASES = (0.0, 2.0 * np.pi)
SCALES = (0.01, 0.99)  # t, the squared norm of a perturbation over the squared radius
TIE_MAGNITUDES = np.array([0.0, 1.0, 2.0])  # the oracle's engineered ties
TIE_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


def _sparse_rows(rng, n: int, s) -> np.ndarray:
    """One complex row of length n per budget in ``s``, row j with s[j]
    nonzeros at uniformly random positions, magnitudes uniform in MAGNITUDES
    and phases uniform in PHASES.  The argsort of a uniform row is a uniform
    permutation, so the positions where it is below s[j] are a uniform
    s[j]-subset."""
    s = np.asarray(s)
    on = rng.random((s.size, n)).argsort(axis=1) < s[:, None]
    w = np.zeros((s.size, n), dtype=complex)
    k = int(np.count_nonzero(on))
    w[on] = rng.uniform(*MAGNITUDES, k) * np.exp(1j * rng.uniform(*PHASES, k))
    return w


def _perturbed(rng, w: np.ndarray, radius_sq) -> np.ndarray:
    """Rows w + u, u complex normal rescaled to ||u||^2 = t * radius_sq with
    t uniform in SCALES, one t per row."""
    re, im = rng.standard_normal((2, *w.shape))
    u = re + 1j * im
    t = rng.uniform(*SCALES, len(w))
    u *= np.sqrt(t * radius_sq / (re**2 + im**2).sum(axis=1))[:, None]
    return w + u


def _blocks(draws: int, seed: int, params, rows):
    """Make ``draws`` draws from one generator, BLOCK at a time.
    ``params(rng, k)`` draws k lengths n and the integer parameters,
    (n, shown, *rest); ``rows(rng, n, shown, *rest)`` draws the vectors of
    the draws of one length n.  Returns an iterator of (draw numbers, shown,
    *vectors), one per length in each block.  A draw count below 1 raises
    here, before any draw."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")

    def blocks():
        rng = np.random.default_rng(seed)
        for start in range(0, draws, BLOCK):
            n, *ints = params(rng, min(BLOCK, draws - start))
            for length in np.unique(n):
                at = np.flatnonzero(n == length)
                held = [p[at] for p in ints]
                yield (start + at, held[0], *rows(rng, int(length), *held))

    return blocks()


def _min_sq_nonzero(w: np.ndarray) -> np.ndarray:
    """Smallest squared nonzero magnitude of each row."""
    return np.where(w != 0, np.abs(w) ** 2, np.inf).min(axis=-1)


def _theorem2_params(rng, k: int):
    n = rng.integers(2, 33, k)
    return n, rng.integers(1, np.maximum(2, n // 2 + 1))


def _theorem2_rows(rng, n: int, s):
    w = _sparse_rows(rng, n, s)
    return w, _perturbed(rng, w, _min_sq_nonzero(w) / 2.0)


def theorem2_draws(draws: int, seed: int):
    """The theorem-2 suite's draws, in batches of equal length n: an iterator
    of (draw numbers, budgets s, w, w_hat), with w_hat inside the premise
    ball ||w - w_hat||^2 < q^2/2."""
    return _blocks(draws, seed, _theorem2_params, _theorem2_rows)


def _theorem3_params(rng, k: int):
    tau = rng.integers(1, 4, k)
    n = rng.integers(tau + 2, 33)
    return n, tau, rng.integers(1, n - tau)


def _theorem3_rows(rng, n: int, tau, s):
    w = _sparse_rows(rng, n, s)
    return w, _perturbed(rng, w, _min_sq_nonzero(w) * (1.0 - 1.0 / (tau + 2.0)))


def theorem3_draws(draws: int, seed: int):
    """The theorem-3 suite's draws, in batches of equal length n: an iterator
    of (draw numbers, tau per row, w, w_hat), with w_hat inside the relaxed
    ball ||w - w_hat||^2 <= q^2 (1 - 1/(tau+2))."""
    return _blocks(draws, seed, _theorem3_params, _theorem3_rows)


def _in_draw_order(notes: list[tuple[int, str]]) -> list[str]:
    return [note for _, note in sorted(notes)]


def theorem2_suite(draws: int = 100_000, seed: int = 7) -> SuiteResult:
    """Inside-ball perturbations must preserve exact support recovery; also
    checks the induced SER bound (> 2s whenever the premise holds)."""
    res = SuiteResult("theorem2", draws, 0)
    notes = []
    for index, s, w, w_hat in theorem2_draws(draws, seed):
        check = theorem2_check(w, w_hat)
        ser_ok = ser(w, w_hat) > 2 * s
        premise = check.premise
        res.failures += int(np.count_nonzero(~premise))
        res.failures += int(np.count_nonzero(premise & ~check.conclusion))
        res.failures += int(np.count_nonzero(premise & ~ser_ok))
        notes += [(index[j], "construction left the premise ball")
                  for j in np.flatnonzero(~premise)]
        notes += [(index[j], "SER bound violated under the premise")
                  for j in np.flatnonzero(premise & ~ser_ok)]
    res.notes = _in_draw_order(notes)
    return res


def theorem3_suite(draws: int = 100_000, seed: int = 8) -> SuiteResult:
    """Relaxed-ball perturbations with tau in {1,2,3} must preserve the
    superset conclusion for the widened budget d = s + tau.

    The perturbation is dense, so ||w_hat||_0 = n >= s + tau: an off-support
    entry is zero only when both of its normals are exactly 0.0, and an
    on-support entry cannot cancel because |u_i| < |w_i|.  The premise still
    checks ||w_hat||_0 >= d on every draw."""
    res = SuiteResult("theorem3", draws, 0)
    notes = []
    for index, tau, w, w_hat in theorem3_draws(draws, seed):
        check = theorem3_check(w, w_hat, tau)
        res.failures += int(np.count_nonzero(~check.premise))
        res.failures += int(np.count_nonzero(check.premise & ~check.conclusion))
        notes += [(index[j], "construction left the premise region")
                  for j in np.flatnonzero(~check.premise)]
    res.notes = _in_draw_order(notes)
    return res


def tightness_suite(eps: float = 1e-6, seed: int = 9) -> SuiteResult:
    """Theorem 2's bound is tight: at n = 8, s = 3, halve the weakest support
    coefficient and plant a slightly larger impostor off the support, so that
    ||w - w_hat||^2 = q^2/2 + eps, and support equality must fail."""
    rng = np.random.default_rng(seed)
    w = _sparse_rows(rng, 8, [3])[0]
    mags = np.abs(w)
    on = np.flatnonzero(mags > 0)
    ell = on[np.argmin(mags[on])]
    q = mags[ell]
    k = np.setdiff1d(np.arange(8), on)[0]

    w_hat = w.copy()
    w_hat[ell] = w[ell] / 2.0
    delta = (-q + math.sqrt(q * q + 4.0 * eps)) / 2.0  # q*delta + delta^2 = eps
    w_hat[k] = (q / 2.0 + delta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    err2 = float((np.abs(w - w_hat) ** 2).sum())

    res = SuiteResult("theorem2-tightness", 1, 0)
    check = theorem2_check(w, w_hat)
    if check.premise:
        res.failures += 1
        res.notes.append("near-violation unexpectedly satisfied the premise")
    if check.conclusion:
        res.failures += 1
        res.notes.append("support equality survived past the bound")
    if not math.isclose(err2, q * q / 2.0 + eps, rel_tol=1e-9):
        res.failures += 1
        res.notes.append(f"construction error {err2} != q^2/2 + eps")
    res.notes.append(f"error^2 = q^2/2 + {eps:g} breaks recovery as expected")
    return res


def topk_reference(v, s) -> np.ndarray:
    """Quadratic pairwise-count reference for the hard threshold: keep entry i
    when fewer than s entries of its row have strictly larger magnitude.
    Acts along the last axis; ``s`` is an int or one budget per row."""
    v = np.asarray(v)
    m2 = v.real**2 + v.imag**2
    larger = np.count_nonzero(m2[..., None, :] > m2[..., :, None], axis=-1)
    return np.where(larger < np.asarray(s)[..., None], v, 0)


def _oracle_params(rng, k: int):
    n = rng.integers(1, 13, k)
    return n, rng.integers(1, n + 1), rng.integers(0, 3, k)


def _oracle_rows(rng, n: int, s, kind):
    """Complex normal rows (kind 0), engineered ties from a tiny exact set of
    magnitudes (kind 1) and real normal rows (kind 2)."""
    re, im = rng.standard_normal((2, s.size, n))
    ties = rng.choice(TIE_MAGNITUDES, (s.size, n)) * rng.choice(TIE_PHASES, (s.size, n))
    kind = kind[:, None]
    return (np.where(kind == 1, ties, re + 1j * np.where(kind == 2, 0.0, im)),)


def oracle_draws(draws: int, seed: int):
    """The top-k oracle suite's draws, in batches of equal length n: an
    iterator of (draw numbers, budgets s, v) for complex, tied and real
    vectors."""
    return _blocks(draws, seed, _oracle_params, _oracle_rows)


NOTED = 10  # mismatches the oracle suite names by draw number


def hard_threshold_oracle_suite(draws: int = 10_000, seed: int = 11) -> SuiteResult:
    """Agreement of hard_threshold with the pairwise-count reference on random
    complex vectors (N <= 12) plus engineered tie patterns.  The notes name
    the first NOTED mismatches by draw number."""
    res = SuiteResult("hard-threshold-oracle", draws, 0)
    mismatches = []
    for index, s, v in oracle_draws(draws, seed):
        agree = (hard_threshold(v, s) == topk_reference(v, s)).all(axis=-1)
        mismatches += [index[j] for j in np.flatnonzero(~agree)]
    mismatches.sort()
    res.failures = len(mismatches)
    res.notes = [f"draw {i}: hard_threshold differs from the pairwise-count reference"
                 for i in mismatches[:NOTED]]
    if res.failures > NOTED:
        res.notes.append(f"and {res.failures - NOTED} more mismatches")
    return res


def sensing_identity_suite(n_max: int = 64, tol: float = 1e-12) -> SuiteResult:
    """(1/N) sum_t x(t) x(t)^H accumulated term by term must be the identity."""
    res = SuiteResult("sensing-identity", 0, 0)
    worst = 0.0
    for n in range(2, n_max + 1):
        acc = np.zeros((n, n), dtype=complex)
        for t in range(n):
            x = regressor_row(n, t)
            acc += np.outer(x, x.conj())
        dev = float(np.abs(acc / n - np.eye(n)).max())
        worst = max(worst, dev)
        res.draws += 1
        if dev >= tol:
            res.failures += 1
            res.notes.append(f"N={n}: max deviation {dev:.3e}")
    res.notes.append(f"worst deviation {worst:.3e} over N=2..{n_max}")
    return res


def sza_bias_suite(realizations: int = 500, n: int = 32, seed: int = 17) -> SuiteResult:
    """Steady-state mean of the selective-attraction estimator.

    Averaged over noise realizations with a fixed sparse spectrum (3 sines at
    20 dB SNR, 2000 steps of mu = 0.5/N and rho = 0.05 mu), the off-support
    bias magnitude must stay within rho/mu (plus Monte-Carlo slack) and the
    on-support bias must be statistically indistinguishable from zero,
    matching the limiting-mean fixed point of the update.
    """
    sines, snr_db = 3, 20.0
    rng = np.random.default_rng(seed)
    bins = tuple(int(b) for b in rng.choice(np.arange(1, n // 2), size=sines, replace=False))
    spec = SignalSpec(n=n, sines=sines, bins=bins, snr_db=snr_db)
    z = multisine(spec)
    w_true = true_spectrum(spec)[:half_size(n)]  # the estimator's stored bins
    sigma = noise_std(signal_power(spec), snr_db)

    mu = 0.5 / n
    rho = 0.05 * mu
    m = 8  # keeps per-sample index draws uniform while batching the rng work
    windows = 2000 // m

    finals = np.empty((realizations, half_size(n)), dtype=complex)
    for r in range(realizations):
        est = Estimator(EstimatorConfig("sza", mu=mu, rho=rho, s=2 * sines), n)
        sens = SensingConfig(n=n, m=m, mode=Windowed(windows), seed=seed + 1000 + r)
        for sample in make_stream(sens, itertools.repeat(z, windows), sigma):
            est.step(sample)
        finals[r] = est.state.w

    bias = finals.mean(axis=0) - w_true
    se = finals.std(axis=0) / math.sqrt(realizations)
    on = np.abs(w_true) > 0

    res = SuiteResult("sza-bias", realizations, 0)
    off_bound = rho / mu + 3.0 * se[~on]
    if not np.all(np.abs(bias[~on]) <= off_bound):
        res.failures += 1
        res.notes.append("off-support bias exceeded rho/mu + 3 SE")
    if not np.all(np.abs(bias[on]) <= 3.0 * se[on]):
        res.failures += 1
        res.notes.append("on-support bias CI excluded zero")
    res.notes.append(
        f"off-support max |bias| {np.abs(bias[~on]).max():.2e} (bound {rho / mu:.2e} + 3 SE), "
        f"on-support max |bias|/3SE "
        f"{(np.abs(bias[on]) / (3.0 * se[on])).max():.2f}"
    )
    return res


def roundtrip_suite(seed: int = 13) -> SuiteResult:
    """The exact spectrum must regenerate the time signal through the rows."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("spectrum-roundtrip", 0, 0)
    for n, k in ((8, 1), (64, 3), (1000, 10)):
        bins = tuple(int(b) for b in rng.choice(np.arange(1, n // 2), size=k, replace=False))
        amps = tuple(float(a) for a in rng.uniform(0.5, 2.0, size=k))
        spec = SignalSpec(n=n, sines=k, bins=bins, amps=amps)
        z = multisine(spec)
        w = true_spectrum(spec)
        rebuilt = (np.stack([regressor_row(n, t) for t in range(n)]) @ w.conj()).real
        dev = float(np.abs(rebuilt - z).max())
        res.draws += 1
        if dev >= 1e-10:
            res.failures += 1
            res.notes.append(f"N={n}: max deviation {dev:.3e}")
    return res
