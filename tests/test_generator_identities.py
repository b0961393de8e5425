"""The generator identities the verification suites' batched draws rely on.

Each batched call must return what the one-vector loop's calls return and
leave the generator in the same state, so that every later draw of the stream
is unchanged.  Each identity has its own test, so a numpy release that breaks
one fails here under its name, not only as a draw mismatch in
test_verification.py.
"""

import numpy as np
import pytest

from sparselms.verification import (
    MAGNITUDES,
    PHASES,
    SCALES,
    TIE_MAGNITUDES,
    TIE_PHASES,
    uniform,
)

SEEDS = range(40)
SIZES = range(1, 33)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


def _bits(v):
    return np.ascontiguousarray(v).view(np.uint64).tolist()


@pytest.mark.parametrize("low, high", [MAGNITUDES, PHASES, SCALES])
def test_uniform_is_its_formula_on_random(low, high):
    for seed in SEEDS:
        for s in SIZES:
            one, batched = _pair(seed)
            expected = one.uniform(low, high, size=s)
            assert _bits(uniform(batched.random(s), low, high)) == _bits(expected)
            _same_state(one, batched)


def test_magnitudes_then_phases_are_one_random_call():
    for seed in SEEDS:
        for s in SIZES:
            one, batched = _pair(seed)
            mags = one.uniform(*MAGNITUDES, size=s)
            phases = one.uniform(*PHASES, size=s)
            u_mags, u_phases = batched.random((2, s))
            assert _bits(uniform(u_mags, *MAGNITUDES)) == _bits(mags)
            assert _bits(uniform(u_phases, *PHASES)) == _bits(phases)
            _same_state(one, batched)


def test_two_normal_vectors_are_one_call_into_a_2_by_n_row():
    for seed in SEEDS:
        for n in SIZES:
            one, batched = _pair(seed)
            re, im = one.standard_normal(n), one.standard_normal(n)
            held = np.zeros((3, 2, n))  # a row of a group's buffer
            batched.standard_normal(out=held[1])
            assert _bits(held[1, 0]) == _bits(re) and _bits(held[1, 1]) == _bits(im)
            _same_state(one, batched)


def test_scalar_uniforms_are_the_formula_on_scalar_randoms():
    for seed in SEEDS:
        one, batched = _pair(seed)
        expected = [one.uniform(*SCALES) for _ in SIZES]
        held = [batched.random() for _ in SIZES]
        assert _bits(uniform(np.array(held), *SCALES)) == _bits(np.array(expected))
        _same_state(one, batched)


@pytest.mark.parametrize("table", [TIE_MAGNITUDES, TIE_PHASES], ids=["magnitudes", "phases"])
def test_a_choice_from_a_table_is_the_table_at_integers(table):
    for seed in SEEDS:
        for n in SIZES:
            one, batched = _pair(seed)
            expected = one.choice(table.tolist(), size=n)
            got = table[batched.integers(0, table.size, size=n)]
            assert got.dtype == expected.dtype and _bits(got) == _bits(expected)
            _same_state(one, batched)
