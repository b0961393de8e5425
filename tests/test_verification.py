"""The randomized suites draw exactly as a one-vector loop does and decide
every draw as the one-vector checks do.

The reference generators below are the suites' per-draw loops written for one
vector at a time; the batched draws must match them bit for bit, draw by draw.
"""

import math

import numpy as np

from sparselms import verification
from sparselms.sparse_ops import TheoremCheck, hard_threshold, ser, theorem2_check, theorem3_check
from sparselms.verification import (
    CHUNK,
    oracle_draws,
    theorem2_draws,
    theorem2_suite,
    theorem3_draws,
    theorem3_suite,
    topk_reference,
)

# enough draws that every length n fills several chunks
DRAWS = 3000


def _sparse(rng, n, s):
    w = np.zeros(n, dtype=complex)
    pos = rng.choice(n, size=s, replace=False)
    mags = rng.uniform(0.3, 2.0, size=s)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=s)
    w[pos] = mags * np.exp(1j * phases)
    return w


def _perturb(rng, w, radius_sq):
    u = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    t = rng.uniform(0.01, 0.99)
    u *= math.sqrt(t * radius_sq) / np.linalg.norm(u)
    return w + u


def theorem2_reference(draws, seed):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n = int(rng.integers(2, 33))
        s = int(rng.integers(1, max(2, n // 2 + 1)))
        w = _sparse(rng, n, s)
        q2 = (np.abs(w[w != 0]) ** 2).min()
        yield s, w, _perturb(rng, w, q2 / 2.0)


def theorem3_reference(draws, seed):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        tau = int(rng.integers(1, 4))
        n = int(rng.integers(tau + 2, 33))
        s = int(rng.integers(1, n - tau))
        w = _sparse(rng, n, s)
        q2 = (np.abs(w[w != 0]) ** 2).min()
        w_hat = _perturb(rng, w, q2 * (1.0 - 1.0 / (tau + 2.0)))
        assert np.count_nonzero(w_hat) >= s + tau  # dense, as the suite relies on
        yield tau, w, w_hat


def oracle_reference(draws, seed):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n = int(rng.integers(1, 13))
        s = int(rng.integers(1, n + 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif kind == 1:
            base = rng.choice([0.0, 1.0, 2.0], size=n)
            phase = rng.choice([1.0, -1.0, 1.0j, -1.0j], size=n)
            v = base * phase
        else:
            v = rng.standard_normal(n)
        yield s, v


def _bits(v):
    return np.asarray(v, dtype=complex).view(np.float64)


def _by_draw(batches):
    """{draw number: (batch, row)}; each draw appears once, in chunks of at
    most CHUNK rows of one length."""
    rows = {}
    for batch in batches:
        index, vectors = batch[0], batch[2]
        assert len(index) <= CHUNK and vectors.shape[0] == len(index)
        for j, i in enumerate(index):
            assert i not in rows
            rows[i] = (batch, j)
    return rows


def test_theorem2_draws_and_decisions_match_the_one_vector_loop():
    batches = list(theorem2_draws(DRAWS, 5))
    checks = {id(b): (theorem2_check(b[2], b[3]), ser(b[2], b[3])) for b in batches}
    rows = _by_draw(batches)
    assert sorted(rows) == list(range(DRAWS))
    for i, (s, w, w_hat) in enumerate(theorem2_reference(DRAWS, 5)):
        batch, j = rows[i]
        _, budgets, ws, w_hats = batch
        assert budgets[j] == s
        assert np.array_equal(_bits(ws[j]), _bits(w))
        assert np.array_equal(_bits(w_hats[j]), _bits(w_hat))
        check, sers = checks[id(batch)]
        assert (check.premise[j], check.conclusion[j]) == theorem2_check(w, w_hat)
        assert sers[j] == ser(w, w_hat)


def test_theorem3_draws_and_decisions_match_the_one_vector_loop():
    batches = list(theorem3_draws(DRAWS, 6))
    checks = {id(b): theorem3_check(b[2], b[3], b[1]) for b in batches}
    rows = _by_draw(batches)
    assert sorted(rows) == list(range(DRAWS))
    for i, (tau, w, w_hat) in enumerate(theorem3_reference(DRAWS, 6)):
        batch, j = rows[i]
        _, taus, ws, w_hats = batch
        assert taus[j] == tau
        assert np.array_equal(_bits(ws[j]), _bits(w))
        assert np.array_equal(_bits(w_hats[j]), _bits(w_hat))
        check = checks[id(batch)]
        assert (check.premise[j], check.conclusion[j]) == theorem3_check(w, w_hat, tau)


def test_oracle_draws_and_decisions_match_the_one_vector_loop():
    batches = list(oracle_draws(DRAWS, 7))
    agree = {
        id(b): (hard_threshold(b[2], b[1]) == topk_reference(b[2], b[1])).all(axis=-1)
        for b in batches
    }
    rows = _by_draw(batches)
    assert sorted(rows) == list(range(DRAWS))
    for i, (s, v) in enumerate(oracle_reference(DRAWS, 7)):
        batch, j = rows[i]
        _, budgets, vs = batch
        assert budgets[j] == s
        assert np.array_equal(vs[j], v)
        assert agree[id(batch)][j] == np.array_equal(hard_threshold(v, s), topk_reference(v, s))


def test_topk_reference_stack_matches_rows():
    rng = np.random.default_rng(4)
    v = rng.choice([0.0, 1.0, -2.0, 2.0], size=(6, 5)) * rng.choice([1.0, 1j], size=(6, 5))
    s = np.array([1, 2, 3, 4, 5, 2])
    out = topk_reference(v, s)
    for r in range(6):
        np.testing.assert_array_equal(out[r], topk_reference(v[r], int(s[r])))


def test_suite_counts_and_notes_follow_draw_order(monkeypatch):
    # premise fails on odd n, the SER bound on every draw: each draw fails
    # once, with the note of its own kind, in draw order
    real = theorem2_check

    def odd_n_leaves_the_ball(w, w_hat):
        check = real(w, w_hat)
        return TheoremCheck(check.premise & (w.shape[-1] % 2 == 0), check.conclusion)

    monkeypatch.setattr(verification, "theorem2_check", odd_n_leaves_the_ball)
    monkeypatch.setattr(verification, "ser", lambda w, w_hat: np.zeros(len(w)))
    res = theorem2_suite(200, 3)
    expected = [
        "construction left the premise ball" if w.size % 2 else
        "SER bound violated under the premise"
        for _, w, _ in theorem2_reference(200, 3)
    ]
    assert res.failures == 200
    assert res.notes == expected


def test_theorem3_suite_notes_a_premise_failure_per_draw(monkeypatch):
    def never(w, w_hat, tau):
        no = np.zeros(len(w), dtype=bool)
        return TheoremCheck(no, no)

    monkeypatch.setattr(verification, "theorem3_check", never)
    res = theorem3_suite(100, 2)
    assert res.failures == 100
    assert res.notes == ["construction left the premise region"] * 100
