"""Randomized property suites and brute-force cross-checks.

The reference routines here deliberately avoid the library's own code paths:
the top-k reference ranks by pairwise magnitude counting, and the sensing
identity is accumulated as an explicit sum of outer products.

The randomized suites read the generator stream in the order a one-vector
loop reads it, hold the draws of each length n in chunks of CHUNK, and check
a chunk as one stack; the draws and the per-draw decisions are those of the
one-vector loop, bit for bit.  A draw reads the stream with fewer calls than
the loop makes, through four identities of numpy's Generator that
tests/test_generator_identities.py checks one by one:

- ``uniform(a, b, size=s)`` is ``(b - a) * random(s) + a``, numpy's own
  formula, so the two uniform calls of a sparse vector's magnitudes and
  phases are one ``random((2, s))``, and the perturbation's scale t is
  ``random()``; ``uniform`` applies the formula once per chunk;
- two ``standard_normal(n)`` calls are one ``standard_normal`` into a
  contiguous (2, n) row;
- ``choice(table, size=n)`` is ``table[integers(0, len(table), size=n)]``.

``choice(n, size=s, replace=False)`` and the scalar ``integers`` calls stay
as the loop makes them: Floyd's draws are followed by a masked shuffle on
32-bit halves of the stream, which no cheaper call reproduces.
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


CHUNK = 32  # draws of one length n checked together; bounds the held draws

MAGNITUDES = (0.3, 2.0)  # a sparse vector's nonzero magnitudes are uniform here
PHASES = (0.0, 2.0 * np.pi)
SCALES = (0.01, 0.99)  # t, the squared norm of a perturbation over the squared radius
TIE_MAGNITUDES = np.array([0.0, 1.0, 2.0])  # the oracle's engineered ties
TIE_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


def uniform(u, low: float, high: float):
    """numpy's ``uniform(low, high)`` from the doubles ``u`` that ``random()``
    drew in its place: Generator.uniform computes low + (high - low) u."""
    return (high - low) * u + low


def _random_sparse(rng, n: int, s: int) -> np.ndarray:
    """s-sparse complex vector with nonzero magnitudes in [0.3, 2]."""
    w = np.zeros(n, dtype=complex)
    pos = rng.choice(n, size=s, replace=False)
    mags, phases = rng.random((2, s))
    w[pos] = uniform(mags, *MAGNITUDES) * np.exp(1j * uniform(phases, *PHASES))
    return w


class _Groups(dict):
    """The _Group of each length n, made on first use."""

    def __missing__(self, n: int) -> "_Group":
        group = self[n] = _Group(n)
        return group


class _Group:
    """Up to CHUNK draws of one length n.

    A sparse vector is held as drawn: its size s in ``sizes``, its positions
    in ``pos`` and the (2, s) uniforms of its magnitudes and phases in
    ``units``; ``sparse_rows`` scatters the chunk's at once.  ``normal[row]``
    holds a draw's two standard-normal vectors (or the parts of an oracle
    vector), ``t`` the ``random()`` of its perturbation's scale and ``ints``
    its integer parameter (budget or tau).
    """

    def __init__(self, n: int):
        self.n = n
        self.normal = np.zeros((CHUNK, 2, n))
        self.clear()

    def clear(self) -> None:
        """Release the held draws; lists handed out before stay intact."""
        self.index: list[int] = []
        self.ints: list[int] = []
        self.t: list[float] = []
        self.sizes: list[int] = []
        self.pos: list[np.ndarray] = []
        self.units: list[np.ndarray] = []

    def add(self, i: int, param: int) -> int:
        """Hold draw ``i`` with its integer parameter; returns its row."""
        self.index.append(i)
        self.ints.append(param)
        return len(self.index) - 1

    def draw_perturbed_sparse(self, rng, i: int, param: int, s: int) -> "_Group":
        """Hold draw ``i``: an s-sparse vector, then the two normal vectors and
        the uniform of its perturbation, in the order of the rng calls."""
        row = self.add(i, param)
        self.sizes.append(s)
        self.pos.append(rng.choice(self.n, size=s, replace=False))
        self.units.append(rng.random((2, s)))
        rng.standard_normal(out=self.normal[row])
        self.t.append(rng.random())
        return self

    def sparse_rows(self) -> np.ndarray:
        """The held sparse vectors, as _random_sparse builds each one."""
        k = len(self.index)
        mags, phases = np.concatenate(self.units, axis=1)
        w = np.zeros((k, self.n), dtype=complex)
        rows = np.repeat(np.arange(k), self.sizes)
        w[rows, np.concatenate(self.pos)] = (
            uniform(mags, *MAGNITUDES) * np.exp(1j * uniform(phases, *PHASES))
        )
        return w

    def complex_rows(self) -> np.ndarray:
        normal = self.normal[: len(self.index)]
        return normal[:, 0] + 1j * normal[:, 1]

    def perturbed(self, w: np.ndarray, radius_sq) -> np.ndarray:
        """Rows w + u, u = re + 1j*im rescaled to ||u||^2 = t * radius_sq.

        The norms come from a stacked matmul on the strided real and imaginary
        parts of u, which runs the BLAS dot that np.linalg.norm runs on one
        vector, so each row equals the one-vector result bit for bit.
        """
        u = self.complex_rows()
        re, im = u.real, u.imag
        sq = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
        t = uniform(np.array(self.t), *SCALES)
        u *= (np.sqrt(t * radius_sq) / np.sqrt(sq))[:, None]
        return w + u


def _by_n(draws: int, seed: int, draw, chunk):
    """Make ``draws`` draws in order from one generator; ``draw(rng, i,
    groups)`` holds draw i in the group of its length n and returns that
    group.  Returns an iterator over ``chunk(group)`` of each group once it
    holds CHUNK draws, and of every group still holding draws at the end; a
    group is cleared once its chunk is made.  A draw count below 1 raises
    here, before any draw."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")

    def chunks():
        rng = np.random.default_rng(seed)
        groups = _Groups()
        for i in range(draws):
            group = draw(rng, i, groups)
            if len(group.index) == CHUNK:
                held = chunk(group)
                group.clear()
                yield held
        for group in groups.values():
            if group.index:
                yield chunk(group)

    return chunks()


def _min_sq_nonzero(w: np.ndarray) -> np.ndarray:
    """Smallest squared nonzero magnitude of each row."""
    return np.where(w != 0, np.abs(w) ** 2, np.inf).min(axis=-1)


def _theorem2_draw(rng, i, groups) -> _Group:
    n = int(rng.integers(2, 33))
    s = int(rng.integers(1, max(2, n // 2 + 1)))
    return groups[n].draw_perturbed_sparse(rng, i, s, s)


def _theorem2_chunk(group: _Group):
    w = group.sparse_rows()
    return group.index, np.array(group.ints), w, group.perturbed(w, _min_sq_nonzero(w) / 2.0)


def theorem2_draws(draws: int, seed: int):
    """The theorem-2 suite's draws, in chunks of equal length n: an iterator
    of (draw numbers, budgets s, w, w_hat), with w_hat inside the premise
    ball ||w - w_hat||^2 < q^2/2."""
    return _by_n(draws, seed, _theorem2_draw, _theorem2_chunk)


def _theorem3_draw(rng, i, groups) -> _Group:
    tau = int(rng.integers(1, 4))
    n = int(rng.integers(tau + 2, 33))
    s = int(rng.integers(1, n - tau))
    return groups[n].draw_perturbed_sparse(rng, i, tau, s)


def _theorem3_chunk(group: _Group):
    tau = np.array(group.ints)
    w = group.sparse_rows()
    radius_sq = _min_sq_nonzero(w) * (1.0 - 1.0 / (tau + 2.0))
    return group.index, tau, w, group.perturbed(w, radius_sq)


def theorem3_draws(draws: int, seed: int):
    """The theorem-3 suite's draws, in chunks of equal length n: an iterator
    of (draw numbers, tau per row, w, w_hat), with w_hat inside the relaxed
    ball ||w - w_hat||^2 <= q^2 (1 - 1/(tau+2))."""
    return _by_n(draws, seed, _theorem3_draw, _theorem3_chunk)


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
    parts = group.normal[group.add(i, s)]
    if kind == 0:
        rng.standard_normal(out=parts)
    elif kind == 1:
        # engineered ties: magnitudes drawn from a tiny exact set
        base = TIE_MAGNITUDES[rng.integers(0, TIE_MAGNITUDES.size, size=n)]
        v = base * TIE_PHASES[rng.integers(0, TIE_PHASES.size, size=n)]
        parts[0], parts[1] = v.real, v.imag
    else:
        rng.standard_normal(out=parts[0])  # real input
        parts[1] = 0.0
    return group


def _oracle_chunk(group: _Group):
    return group.index, np.array(group.ints), group.complex_rows()


def oracle_draws(draws: int, seed: int):
    """The top-k oracle suite's draws, in chunks of equal length n: an
    iterator of (draw numbers, budgets s, v) for complex, tied and real
    vectors."""
    return _by_n(draws, seed, _oracle_draw, _oracle_chunk)


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
    w_true = true_spectrum(spec)[:half_size(n)]  # the estimator's stored bins
    sigma = noise_std(signal_power(spec), snr_db)

    mu = mu_ref / n
    rho = rho_over_mu * mu
    m = 8  # keeps per-sample index draws uniform while batching the rng work
    windows = steps // m

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
        rebuilt = (np.stack([regressor_row(n, t) for t in range(n)]) @ w.conj()).real
        dev = float(np.abs(rebuilt - z).max())
        res.draws += 1
        if dev >= tol:
            res.failures += 1
            res.notes.append(f"N={n}: max deviation {dev:.3e}")
    return res
