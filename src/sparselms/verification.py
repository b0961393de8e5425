"""Randomized property suites and brute-force cross-checks.

The reference routines here deliberately avoid the library's own code paths:
the top-k reference ranks by pairwise magnitude counting, and the sensing
identity is accumulated as an explicit sum of outer products.

The randomized suites make every draw's generator calls in the order a
one-vector loop makes them, hold the draws of each length n in chunks of
CHUNK, and check a chunk as one stack; the draws and the per-draw decisions
are those of the one-vector loop, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Estimator, EstimatorConfig
from .sensing import SensingConfig, Windowed, fourier_rows, make_stream, regressor_row
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


CHUNK = 32  # draws of one length n checked together; bounds the held draws


def _sparse_draw(rng, n: int, s: int):
    """Positions, magnitudes in [0.3, 2] and phases of an s-sparse vector."""
    pos = rng.choice(n, size=s, replace=False)
    return pos, rng.uniform(0.3, 2.0, size=s), rng.uniform(0.0, 2.0 * np.pi, size=s)


def _random_sparse(rng, n: int, s: int) -> np.ndarray:
    """s-sparse complex vector with nonzero magnitudes in [0.3, 2]."""
    w = np.zeros(n, dtype=complex)
    pos, mags, phases = _sparse_draw(rng, n, s)
    w[pos] = mags * np.exp(1j * phases)
    return w


class _Groups(dict):
    """The _Group of each length n, made on first use."""

    def __missing__(self, n: int) -> "_Group":
        group = self[n] = _Group(n)
        return group


class _Group:
    """Up to CHUNK draws of one length n, held in fixed buffers.

    ``mag`` and ``phase`` hold a sparse vector scattered to its positions,
    ``re`` and ``im`` a draw's two standard-normal vectors (or the parts of
    an oracle vector), ``t`` its perturbation uniform and ``ints`` its integer
    parameter (budget or tau).
    """

    def __init__(self, n: int):
        self.n = n
        self.mag = np.zeros((CHUNK, n))
        self.phase = np.zeros((CHUNK, n))
        self.re = np.zeros((CHUNK, n))
        self.im = np.zeros((CHUNK, n))
        self.index: list[int] = []
        self.ints: list[int] = []
        self.t: list[float] = []

    def clear(self) -> None:
        """Release the held draws; lists handed out before stay intact."""
        k = len(self.index)
        self.mag[:k] = 0.0
        self.phase[:k] = 0.0
        self.index, self.ints, self.t = [], [], []

    def add(self, i: int, param: int) -> int:
        """Hold draw ``i`` with its integer parameter; returns its row."""
        self.index.append(i)
        self.ints.append(param)
        return len(self.index) - 1

    def draw_normals(self, rng, row: int) -> None:
        rng.standard_normal(out=self.re[row])
        rng.standard_normal(out=self.im[row])

    def draw_perturbed_sparse(self, rng, i: int, param: int, s: int) -> "_Group":
        """Hold draw ``i``: an s-sparse vector, then the two normal vectors and
        the uniform of its perturbation, in the order of the rng calls."""
        row = self.add(i, param)
        pos, mags, phases = _sparse_draw(rng, self.n, s)
        self.mag[row, pos] = mags
        self.phase[row, pos] = phases
        self.draw_normals(rng, row)
        self.t.append(rng.uniform(0.01, 0.99))
        return self

    def sparse_rows(self) -> np.ndarray:
        """The held sparse vectors, as _random_sparse builds each one."""
        k = len(self.index)
        return self.mag[:k] * np.exp(1j * self.phase[:k])

    def complex_rows(self) -> np.ndarray:
        k = len(self.index)
        return self.re[:k] + 1j * self.im[:k]

    def perturbed(self, w: np.ndarray, radius_sq) -> np.ndarray:
        """Rows w + u, u = re + 1j*im rescaled to ||u||^2 = t * radius_sq.

        The norms come from a stacked matmul on the strided real and imaginary
        parts of u, which runs the BLAS dot that np.linalg.norm runs on one
        vector, so each row equals the one-vector result bit for bit.
        """
        u = self.complex_rows()
        re, im = u.real, u.imag
        sq = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
        u *= (np.sqrt(np.array(self.t) * radius_sq) / np.sqrt(sq))[:, None]
        return w + u


def _by_n(draws: int, seed: int, draw):
    """Make ``draws`` draws in order from one generator; ``draw(rng, i,
    groups)`` holds draw i in the group of its length n and returns that
    group.  Yields a group once it holds CHUNK draws, and every group still
    holding draws at the end; a yielded group is cleared on resumption."""
    rng = np.random.default_rng(seed)
    groups = _Groups()
    for i in range(draws):
        group = draw(rng, i, groups)
        if len(group.index) == CHUNK:
            yield group
            group.clear()
    for group in groups.values():
        if group.index:
            yield group


def _min_sq_nonzero(w: np.ndarray) -> np.ndarray:
    """Smallest squared nonzero magnitude of each row."""
    return np.where(w != 0, np.abs(w) ** 2, np.inf).min(axis=-1)


def _theorem2_draw(rng, i, groups) -> _Group:
    n = int(rng.integers(2, 33))
    s = int(rng.integers(1, max(2, n // 2 + 1)))
    return groups[n].draw_perturbed_sparse(rng, i, s, s)


def theorem2_draws(draws: int, seed: int):
    """The theorem-2 suite's draws, in chunks of equal length n: yields
    (draw numbers, budgets s, w, w_hat), with w_hat inside the premise ball
    ||w - w_hat||^2 < q^2/2."""
    for group in _by_n(draws, seed, _theorem2_draw):
        w = group.sparse_rows()
        yield group.index, np.array(group.ints), w, group.perturbed(w, _min_sq_nonzero(w) / 2.0)


def _theorem3_draw(rng, i, groups) -> _Group:
    tau = int(rng.integers(1, 4))
    n = int(rng.integers(tau + 2, 33))
    s = int(rng.integers(1, n - tau))
    return groups[n].draw_perturbed_sparse(rng, i, tau, s)


def theorem3_draws(draws: int, seed: int):
    """The theorem-3 suite's draws, in chunks of equal length n: yields
    (draw numbers, tau per row, w, w_hat), with w_hat inside the relaxed
    ball ||w - w_hat||^2 <= q^2 (1 - 1/(tau+2))."""
    for group in _by_n(draws, seed, _theorem3_draw):
        tau = np.array(group.ints)
        w = group.sparse_rows()
        radius_sq = _min_sq_nonzero(w) * (1.0 - 1.0 / (tau + 2.0))
        yield group.index, tau, w, group.perturbed(w, radius_sq)


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


def tightness_example(
    n: int = 8, s: int = 3, eps: float = 1e-6, seed: int = 9
) -> tuple[np.ndarray, np.ndarray, float]:
    """Construct w_hat with ||w - w_hat||^2 = q^2/2 + eps that breaks support
    equality: halve the weakest support coefficient and plant a slightly
    larger impostor off the support."""
    rng = np.random.default_rng(seed)
    if s >= n:
        raise ValueError("need s < n to place the impostor")
    w = _random_sparse(rng, n, s)
    mags = np.abs(w)
    on = np.flatnonzero(mags > 0)
    ell = on[np.argmin(mags[on])]
    q = mags[ell]
    off = np.setdiff1d(np.arange(n), on)
    k = off[0]

    w_hat = w.copy()
    w_hat[ell] = w[ell] / 2.0
    delta = (-q + math.sqrt(q * q + 4.0 * eps)) / 2.0  # q*delta + delta^2 = eps
    w_hat[k] = (q / 2.0 + delta) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    err2 = float((np.abs(w - w_hat) ** 2).sum())
    return w, w_hat, err2


def tightness_suite(eps: float = 1e-6, seed: int = 9) -> SuiteResult:
    res = SuiteResult("theorem2-tightness", 1, 0)
    w, w_hat, err2 = tightness_example(eps=eps, seed=seed)
    q2 = float((np.abs(w[w != 0]) ** 2).min())
    check = theorem2_check(w, w_hat)
    if check.premise:
        res.failures += 1
        res.notes.append("near-violation unexpectedly satisfied the premise")
    if check.conclusion:
        res.failures += 1
        res.notes.append("support equality survived past the bound")
    if not math.isclose(err2, q2 / 2.0 + eps, rel_tol=1e-9):
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


def _oracle_draw(rng, i, groups) -> _Group:
    n = int(rng.integers(1, 13))
    s = int(rng.integers(1, n + 1))
    kind = rng.integers(0, 3)
    group = groups[n]
    row = group.add(i, s)
    if kind == 0:
        group.draw_normals(rng, row)
    elif kind == 1:
        # engineered ties: magnitudes drawn from a tiny exact set
        base = rng.choice([0.0, 1.0, 2.0], size=n)
        phase = rng.choice([1.0, -1.0, 1.0j, -1.0j], size=n)
        v = base * phase
        group.re[row], group.im[row] = v.real, v.imag
    else:
        rng.standard_normal(out=group.re[row])  # real input
        group.im[row] = 0.0
    return group


def oracle_draws(draws: int, seed: int):
    """The top-k oracle suite's draws, in chunks of equal length n: yields
    (draw numbers, budgets s, v) for complex, tied and real vectors."""
    for group in _by_n(draws, seed, _oracle_draw):
        yield group.index, np.array(group.ints), group.complex_rows()


def hard_threshold_oracle_suite(draws: int = 10_000, seed: int = 11) -> SuiteResult:
    """Agreement of hard_threshold with the pairwise-count reference on random
    complex vectors (N <= 12) plus engineered tie patterns."""
    res = SuiteResult("hard-threshold-oracle", draws, 0)
    for _, s, v in oracle_draws(draws, seed):
        agree = (hard_threshold(v, s) == topk_reference(v, s)).all(axis=-1)
        res.failures += int(np.count_nonzero(~agree))
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


def sza_bias_suite(
    realizations: int = 500,
    n: int = 32,
    sines: int = 3,
    steps: int = 2000,
    mu_ref: float = 0.5,
    rho_over_mu: float = 0.05,
    snr_db: float = 20.0,
    seed: int = 17,
) -> SuiteResult:
    """Steady-state mean of the selective-attraction estimator.

    Averaged over noise realizations with a fixed sparse spectrum, the
    off-support bias magnitude must stay within rho/mu (plus Monte-Carlo
    slack) and the on-support bias must be statistically indistinguishable
    from zero, matching the limiting-mean fixed point of the update.
    """
    rng = np.random.default_rng(seed)
    bins = tuple(int(b) for b in rng.choice(np.arange(1, n // 2), size=sines, replace=False))
    spec = SignalSpec(n=n, sines=sines, bins=bins, snr_db=snr_db)
    z = multisine(spec)
    w_true = true_spectrum(spec)
    sigma = noise_std(signal_power(spec), snr_db)

    mu = mu_ref / n
    rho = rho_over_mu * mu
    m = 8  # keeps per-sample index draws uniform while batching the rng work
    windows = steps // m

    finals = np.empty((realizations, n), dtype=complex)
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


def roundtrip_suite(seed: int = 13, tol: float = 1e-10) -> SuiteResult:
    """The exact spectrum must regenerate the time signal through the rows."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("spectrum-roundtrip", 0, 0)
    for n, k in ((8, 1), (64, 3), (1000, 10)):
        bins = tuple(int(b) for b in rng.choice(np.arange(1, n // 2), size=k, replace=False))
        amps = tuple(float(a) for a in rng.uniform(0.5, 2.0, size=k))
        spec = SignalSpec(n=n, sines=k, bins=bins, amps=amps)
        z = multisine(spec)
        w = true_spectrum(spec)
        rebuilt = (fourier_rows(n) @ w.conj()).real
        dev = float(np.abs(rebuilt - z).max())
        res.draws += 1
        if dev >= tol:
            res.failures += 1
            res.notes.append(f"N={n}: max deviation {dev:.3e}")
    return res
