"""The randomized suites draw by their laws and decide every draw as the
one-vector checks do.

Each iterator yields batches of one length n; the checks below read every
row of a few thousand draws against its law (the ranges of n, s, tau and the
oracle's kinds, the sparse vector and the premise ball) and against the
one-vector check of that row.
"""

import numpy as np
import pytest

from sparselms import verification
from sparselms.sparse_ops import TheoremCheck, hard_threshold, ser, theorem2_check, theorem3_check
from sparselms.verification import (
    hard_threshold_oracle_suite,
    oracle_draws,
    theorem2_draws,
    theorem2_suite,
    theorem3_draws,
    theorem3_suite,
    topk_reference,
)

# enough draws that every length n occurs in several blocks
DRAWS = 3000


def _rows(batches, decide):
    """Every row of the batches in draw order, as (parameter, *vectors,
    decision), where ``decide(batch)`` gives one decision per row of its
    stack; checks that each batch holds one length and that each draw occurs
    once."""
    rows = {}
    for batch in batches:
        index, param, *vectors = batch
        assert len(param) == len(index)
        for v in vectors:
            assert v.shape == (len(index), vectors[0].shape[1])
        for j, (i, decision) in enumerate(zip(index, decide(batch), strict=True)):
            assert i not in rows
            rows[int(i)] = (int(param[j]), *(v[j] for v in vectors), decision)
    assert sorted(rows) == list(range(DRAWS))
    return [rows[i] for i in range(DRAWS)]


def _sparse_and_inside(w, w_hat, s, radius_sq):
    """w has exactly s nonzeros, with magnitudes in [0.3, 2]; w_hat lies
    strictly inside the ball of squared radius radius_sq(q^2) around w."""
    mags = np.abs(w[w != 0])
    assert mags.size == s
    assert mags.min() >= 0.3 and mags.max() <= 2.0
    assert np.sum(np.abs(w - w_hat) ** 2) < radius_sq(mags.min() ** 2)


def test_theorem2_draws_follow_the_law_and_decide_as_one_vector():
    def decide(batch):
        _, _, w, w_hat = batch
        return zip(*theorem2_check(w, w_hat), ser(w, w_hat))

    covered = {}  # the positions that a nonzero took, per length
    for s, w, w_hat, (premise, conclusion, sers) in _rows(theorem2_draws(DRAWS, 5), decide):
        n = w.size
        covered.setdefault(n, set()).update(np.flatnonzero(w).tolist())
        assert 2 <= n <= 32 and 1 <= s <= max(1, n // 2)
        _sparse_and_inside(w, w_hat, s, lambda q2: q2 / 2.0)
        assert (premise, conclusion) == theorem2_check(w, w_hat)
        assert sers == ser(w, w_hat)
    assert covered == {n: set(range(n)) for n in range(2, 33)}


def test_theorem3_draws_follow_the_law_and_decide_as_one_vector():
    def decide(batch):
        _, tau, w, w_hat = batch
        return zip(*theorem3_check(w, w_hat, tau))

    lengths = set()
    for tau, w, w_hat, decision in _rows(theorem3_draws(DRAWS, 6), decide):
        n, s = w.size, np.count_nonzero(w)
        lengths.add(n)
        assert tau in (1, 2, 3) and tau + 2 <= n <= 32 and 1 <= s <= n - tau - 1
        _sparse_and_inside(w, w_hat, s, lambda q2: q2 * (1.0 - 1.0 / (tau + 2.0)))
        assert np.count_nonzero(w_hat) >= s + tau
        assert decision == theorem3_check(w, w_hat, tau)
    assert lengths == set(range(3, 33))


_TIES = {m * p for m in (0.0, 1.0, 2.0) for p in (1.0, -1.0, 1.0j, -1.0j)}


def _kind(v) -> int:
    """0 for a complex normal row, 1 for a row of engineered ties, 2 for a
    real row; a tie row with real phases only reads as tied."""
    if all(x in _TIES for x in v.tolist()):
        return 1
    if not v.imag.any():
        return 2
    assert v.imag.all() and v.real.all()
    return 0


def test_oracle_draws_follow_the_law_and_decide_as_one_vector():
    def decide(batch):
        _, s, v = batch
        return (hard_threshold(v, s) == topk_reference(v, s)).all(axis=-1)

    lengths, kinds = set(), set()
    for s, v, agreed in _rows(oracle_draws(DRAWS, 7), decide):
        n = v.size
        lengths.add(n)
        kinds.add(_kind(v))
        assert 1 <= n <= 12 and 1 <= s <= n
        assert agreed == np.array_equal(hard_threshold(v, s), topk_reference(v, s))
    assert lengths == set(range(1, 13))
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("seed", [1, 2, 42, 1000, 31337])
def test_the_suites_pass_at_seeds_other_than_the_pinned_ones(seed):
    assert theorem2_suite(20_000, seed).failures == 0
    assert theorem3_suite(20_000, seed + 1).failures == 0
    assert hard_threshold_oracle_suite(10_000, seed + 2).failures == 0


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

    n = {}
    for index, _, w, _ in theorem2_draws(200, 3):
        n.update(dict.fromkeys(index.tolist(), w.shape[-1]))
    monkeypatch.setattr(verification, "theorem2_check", odd_n_leaves_the_ball)
    monkeypatch.setattr(verification, "ser", lambda w, w_hat: np.zeros(len(w)))
    res = theorem2_suite(200, 3)
    expected = [
        "construction left the premise ball" if n[i] % 2 else
        "SER bound violated under the premise"
        for i in range(200)
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
