import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselms.sparse_ops import (
    complex_sign,
    hard_threshold,
    keep_mask,
    selective_penalty,
    ser,
    support,
    theorem2_check,
    theorem3_check,
)
from sparselms.verification import topk_reference

# squared-magnitude comparisons underflow below ~1e-154, turning distinct tiny
# values into ties (kept conservatively); keep generated magnitudes above that
finite_complex = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=10, allow_nan=False),
)


# -- hard threshold -----------------------------------------------------------


def test_hard_threshold_keeps_two_largest():
    np.testing.assert_array_equal(hard_threshold([2, -2, 1, 0], 2), [2, -2, 0, 0])


def test_hard_threshold_keeps_ties():
    np.testing.assert_array_equal(hard_threshold([2, -2, 1, 0], 1), [2, -2, 0, 0])


def test_hard_threshold_s_equals_n_is_identity():
    v = np.array([0.3, -1.2, 0.0, 5.0])
    np.testing.assert_array_equal(hard_threshold(v, 4), v)


def test_hard_threshold_complex_magnitude():
    np.testing.assert_array_equal(hard_threshold([3 + 4j, 2, 1], 1), [3 + 4j, 0, 0])


def test_hard_threshold_s_out_of_range():
    with pytest.raises(ValueError):
        hard_threshold([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        hard_threshold([1.0, 2.0], 3)


def test_hard_threshold_zeroed_entries_exact():
    out = hard_threshold(np.array([1.0, 0.25, -0.1]), 1)
    assert out[1] == 0.0 and out[2] == 0.0


def test_hard_threshold_fewer_nonzeros_than_budget():
    v = np.array([0.0, 2.0, 0.0, 0.0])
    out = hard_threshold(v, 3)
    np.testing.assert_array_equal(out, v)
    assert len(support(out)) == 1  # min(s, ||v||_0)


def test_hard_threshold_rejects_nan():
    # a NaN used to be dropped silently, keeping one coefficient for s = 2
    with pytest.raises(ValueError, match="non-finite coefficient at position 1"):
        hard_threshold([1.0, math.nan, 3.0, 0.5], 2)


def test_hard_threshold_rejects_inf():
    with pytest.raises(ValueError, match="non-finite coefficient at position 2"):
        hard_threshold([1.0, 2.0, complex(0.0, -math.inf), 0.5], 2)
    with pytest.raises(ValueError, match="non-finite coefficient at position 0"):
        hard_threshold([math.inf, 2.0], 2)  # checked for s = N too


def test_selective_penalty_rejects_nan():
    with pytest.raises(ValueError, match="position 3"):
        selective_penalty(np.array([1.0, 2.0, 3.0, math.nan]), 1)


def test_hard_threshold_large_finite_values_are_kept():
    # squares overflow to inf, but every coefficient is finite
    with np.errstate(over="ignore"):
        out = hard_threshold([1e200, 1.0, 2.0], 2)
    np.testing.assert_array_equal(out, [1e200, 0.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_complex, min_size=1, max_size=24), st.data())
def test_hard_threshold_idempotent(values, data):
    v = np.array(values)
    s = data.draw(st.integers(1, v.size))
    once = hard_threshold(v, s)
    np.testing.assert_array_equal(hard_threshold(once, s), once)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_complex, min_size=1, max_size=24), st.data())
def test_hard_threshold_support_cardinality(values, data):
    v = np.array(values)
    s = data.draw(st.integers(1, v.size))
    kept = support(hard_threshold(v, s))
    nnz = int(np.count_nonzero(v))
    assert len(kept) >= min(s, nnz)
    mags = np.abs(v)
    boundary_distinct = np.unique(mags).size == mags.size
    if boundary_distinct:
        assert len(kept) == min(s, nnz)


def test_hard_threshold_matches_pairwise_count_reference():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = int(rng.integers(1, n + 1))
        np.testing.assert_array_equal(hard_threshold(v, s), topk_reference(v, s))


def test_hard_threshold_engineered_ties_match_reference():
    v = np.array([1.0, -1.0, 1.0j, 0.5, -1.0j, 0.0])
    for s in range(1, 7):
        np.testing.assert_array_equal(hard_threshold(v, s), topk_reference(v, s))


# -- stacks -------------------------------------------------------------------

# a small exact set makes ties and zeros common; any float may join them
stack_part = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_keep_mask_stack_matches_rows(data):
    rows = data.draw(st.integers(0, 6), label="rows")
    n = data.draw(st.integers(1, 10), label="n")
    cells = st.lists(stack_part, min_size=rows * n, max_size=rows * n)
    v = np.array(data.draw(cells), dtype=float).reshape(rows, n)
    if data.draw(st.booleans(), label="complex"):
        v = v + 1j * np.array(data.draw(cells), dtype=float).reshape(rows, n)
    if data.draw(st.booleans(), label="per-row budgets"):
        budgets = st.lists(st.integers(1, n), min_size=rows, max_size=rows)
        s = np.array(data.draw(budgets), dtype=int)
        row_s = [int(b) for b in s]
    else:
        s = data.draw(st.integers(1, n), label="s")
        row_s = [s] * rows
    mask, out = keep_mask(v, s), hard_threshold(v, s)
    assert mask.shape == out.shape == v.shape and out.dtype == v.dtype
    for r in range(rows):
        np.testing.assert_array_equal(mask[r], keep_mask(v[r], row_s[r]))
        np.testing.assert_array_equal(out[r], hard_threshold(v[r], row_s[r]))
        np.testing.assert_array_equal(out[r], topk_reference(v[r], row_s[r]))


def test_keep_mask_stack_ties_zeros_and_full_budget():
    v = np.array([[2.0, -2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1j, -1.0, 0.5]])
    np.testing.assert_array_equal(
        keep_mask(v, np.array([1, 2, 4])),
        [[True, True, False, False], [True, True, True, True], [True, True, True, True]],
    )
    np.testing.assert_array_equal(
        hard_threshold(v, np.array([3, 1, 2])),
        [[2.0, -2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1j, -1.0, 0.0]],
    )


def test_keep_mask_three_axis_stack():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 3, 7)) + 1j * rng.standard_normal((2, 3, 7))
    s = rng.integers(1, 8, size=(2, 3))
    out = hard_threshold(v, s)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[idx], hard_threshold(v[idx], int(s[idx])))


def test_keep_mask_long_rows_with_distant_budgets():
    # long rows, so a partition at one cut position leaves the others unsorted
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 3000))
    s = np.array([1, 2999, 1500, 7])
    mask = keep_mask(v, s)
    for r in range(4):
        np.testing.assert_array_equal(mask[r], keep_mask(v[r], int(s[r])))


def test_keep_mask_stack_names_the_non_finite_position():
    v = np.ones((3, 4))
    v[1, 2] = math.nan
    with pytest.raises(ValueError, match=r"non-finite coefficient at position \(1, 2\): nan"):
        keep_mask(v, 2)
    w = np.ones((2, 3), dtype=complex)
    w[1, 0] = complex(0.0, -math.inf)
    with pytest.raises(ValueError, match=r"position \(1, 0\)"):
        hard_threshold(w, np.array([3, 3]))  # checked for s = n too


def test_keep_mask_stack_names_a_budget_out_of_range():
    with pytest.raises(ValueError, match=r"need 1 <= s <= 3, got s=4 in row \(1,\)"):
        keep_mask(np.ones((2, 3)), np.array([1, 4]))
    with pytest.raises(ValueError, match=r"got s=0"):
        keep_mask(np.ones((2, 3)), np.array([0, 1]))


def test_theorem_checks_and_ser_on_stacks_match_rows():
    rng = np.random.default_rng(12)
    n, rows = 9, 40
    w = np.zeros((rows, n), dtype=complex)
    for r in range(rows):
        pos = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        w[r, pos] = rng.uniform(0.3, 2.0, pos.size)
    # radii straddle both premise balls, so both outcomes occur
    w_hat = w + rng.uniform(0.0, 0.6, (rows, 1)) * rng.standard_normal((rows, n))
    tau = rng.integers(1, 4, size=rows)
    two, three, sers = theorem2_check(w, w_hat), theorem3_check(w, w_hat, tau), ser(w, w_hat)
    assert two.premise.any() and not two.premise.all()
    for r in range(rows):
        assert (two.premise[r], two.conclusion[r]) == theorem2_check(w[r], w_hat[r])
        one = theorem3_check(w[r], w_hat[r], int(tau[r]))
        assert (three.premise[r], three.conclusion[r]) == one
        assert sers[r] == ser(w[r], w_hat[r])


def test_vector_inputs_keep_scalar_results():
    check = theorem2_check([1.0, 0.0], [0.8, 0.3])
    assert type(check.premise) is bool and type(check.conclusion) is bool
    assert type(theorem3_check([1.0, 0, 0, 0], [0.6, 0.3, 0.3, 0.3], tau=1).premise) is bool
    assert type(ser([1.0, 2.0], [0.0, 0.0])) is float


# -- complex sign -------------------------------------------------------------


def test_sign_at_zero():
    assert complex_sign(0) == 0


def test_sign_negative_real():
    assert complex_sign(-3) == -1


def test_sign_complex():
    assert complex_sign(3 + 4j) == pytest.approx(0.6 + 0.8j)


def test_sign_vector():
    out = complex_sign(np.array([0.0, -2.0, 3 + 4j]))
    np.testing.assert_allclose(out, [0, -1, 0.6 + 0.8j])


def test_sign_of_a_complex_entry_below_the_normal_range_is_zero():
    # numpy divides by m as (re, im) * (1/m), and 1/m overflowed to inf + nan j
    with np.errstate(all="raise"):
        out = complex_sign(np.array([1e-310 + 0j, 1 + 0j, 5e-324j, 2.2250738585072014e-308]))
        assert out.tolist() == [0j, 1 + 0j, 0j, 1 + 0j]
        assert complex_sign(1e-310 + 1e-310j) == 0
        # a real entry divides exactly
        assert complex_sign(np.array([5e-324, -1e-310, 0.0])).tolist() == [1.0, -1.0, 0.0]


_U = 2.0 ** -53


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(-1e300, 1e300),
    im=st.floats(-1e300, 1e300),
    scale=st.sampled_from([1.0, 1e-300, 2.2250738585072014e-308, 1e-310, 5e-324]),
)
def test_complex_sign_has_modulus_at_most_one_plus_4u(re, im, scale):
    # the bound the estimators' move lemma takes for |g_k|
    v = np.array([complex(re * scale, im * scale)])
    with np.errstate(under="ignore"):
        g = complex(complex_sign(v)[0])
    assert Fraction(g.real) ** 2 + Fraction(g.imag) ** 2 <= Fraction(1 + 4 * _U) ** 2
    assert g == 0 or abs(v[0]) >= 2.2250738585072014e-308


def _masked_sign(v):
    """complex_sign's masked divide, taken on every input: 0 below the floor,
    the least normal magnitude of a complex entry's precision or the least
    positive float64 for a real one, compared in float64 or better."""
    floor = np.finfo(v.dtype).tiny if v.dtype.kind == "c" else np.finfo(float).smallest_subnormal
    mag = np.abs(v)
    out = np.zeros(v.shape, dtype=np.promote_types(v.dtype, float))
    np.divide(v, mag, out=out, where=mag >= floor)
    return out


def test_sign_of_a_single_precision_zero_is_zero():
    # a Python-float floor was compared in float32, where 5e-324 is 0, so a
    # float32 zero divided to NaN; a complex64 magnitude below float32's
    # normal range overflowed its 1/m
    with np.errstate(all="raise"):
        assert complex_sign(np.array([1.5, 0.0, -1e-40], np.float32)).tolist() == [1, 0, -1]
        out = complex_sign(np.array([2j, 0, 1e-39], np.complex64))
        assert out.dtype == complex and out.tolist() == [1j, 0, 0]


_PARTS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-30, 1e38, 1e300])


@settings(max_examples=200, deadline=None)
# every magnitude normal, one inf among them: the unmasked divide
@example(re=[3.0, -1e-300, 1e300, math.inf], im=[4.0, 2.0, -1e300, 1.0], dtype="complex128")
# one subnormal magnitude, and one NaN: the masked divide
@example(re=[1.0, 1e-310, 0.0], im=[1.0, 0.0, 2.0], dtype="complex128")
@example(re=[1.0, math.nan, 0.0], im=[1.0, 0.0, 2.0], dtype="complex128")
# float32 and complex64 divide in their own loop and cast, on both sides
@example(re=[1.5, -3e-30, 7.0], im=[0.0, 0.0, 0.0], dtype="float32")
@example(re=[1.5, 0.0, 7.0], im=[0.0, 0.0, 0.0], dtype="float32")
@example(re=[1.5, 3e-30, -7.0], im=[-2.0, 1e-30, 0.5], dtype="complex64")
@example(re=[1.5, 0.0, -7.0], im=[-2.0, 0.0, 0.5], dtype="complex64")
@given(
    re=st.lists(_PARTS, min_size=0, max_size=6),
    im=st.lists(_PARTS, min_size=6, max_size=6),
    dtype=st.sampled_from(["complex128", "complex64", "float64", "float32"]),
)
def test_complex_sign_gate_keeps_the_masked_bits(re, im, dtype):
    # when every magnitude clears the floor the divide runs unmasked; its
    # dtype and bits are the masked divide's on every input
    with np.errstate(all="ignore"):
        v = np.array(re, dtype=float) + 0j
        v.imag = im[:len(re)]
        v = (v if dtype.startswith("complex") else v.real).astype(dtype)
        got, want = complex_sign(v), _masked_sign(v)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- selective penalty --------------------------------------------------------


def test_selective_penalty_two_kept():
    np.testing.assert_allclose(selective_penalty([2, -2, 1, 0], 2), [0, 0, 1, 0])


def test_selective_penalty_zero_vector():
    np.testing.assert_array_equal(selective_penalty(np.zeros(5), 2), np.zeros(5))


def test_selective_penalty_tie_kept_in_support():
    np.testing.assert_allclose(selective_penalty([2, -2, 1, 0], 1), [0, 0, 1, 0])


def test_selective_penalty_full_budget_vanishes():
    v = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(selective_penalty(v, 3), np.zeros(3))


# -- support ------------------------------------------------------------------


def test_support_exact():
    assert support([2, -2, 0, 0]) == frozenset({0, 1})


# -- SER ----------------------------------------------------------------------


def test_ser_zero_estimate():
    assert ser([1.0, 2.0], [0.0, 0.0]) == 1.0


def test_ser_exact_estimate():
    assert ser([1.0, 2.0], [1.0, 2.0]) == math.inf


def test_ser_zero_reference_rejected():
    with pytest.raises(ValueError):
        ser([0.0, 0.0], [1.0, 0.0])


def test_pairs_of_mismatched_shapes_are_rejected():
    # broadcasting would give ser(ones(3), zeros(1)) = 1.0, and check every
    # row of a stack against one vector
    message = re.escape("reference has shape (3,), estimate has shape (1,)")
    for check in (ser, theorem2_check, lambda w, w_hat: theorem3_check(w, w_hat, 1)):
        with pytest.raises(ValueError, match=message):
            check(np.ones(3), np.zeros(1))
    stack = re.escape("reference has shape (4,), estimate has shape (2, 4)")
    with pytest.raises(ValueError, match=stack):
        theorem2_check([1.0, 0.0, 0.0, 0.0], np.zeros((2, 4)))


def test_ser_exceeds_2s_under_theorem2_premise():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 24))
        s = int(rng.integers(1, n // 2 + 1))
        w = np.zeros(n, dtype=complex)
        pos = rng.choice(n, size=s, replace=False)
        w[pos] = rng.uniform(0.5, 2.0, s) * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        q2 = (np.abs(w[pos]) ** 2).min()
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u *= math.sqrt(rng.uniform(0.01, 0.95) * q2 / 2) / np.linalg.norm(u)
        w_hat = w + u
        assert theorem2_check(w, w_hat).premise
        assert ser(w, w_hat) > 2 * s


# -- theorem checks -----------------------------------------------------------


def test_theorem2_inside_ball():
    check = theorem2_check([1.0, 0.0], [0.8, 0.3])
    assert check == (True, True)


def test_theorem2_outside_ball_near_tight():
    check = theorem2_check([1.0, 0.0], [0.49, 0.51])
    assert check == (False, False)


def test_theorem2_exact_estimate():
    check = theorem2_check([1.0, 0.0], [1.0, 0.0])
    assert check == (True, True)


def test_theorem2_zero_reference_rejected():
    with pytest.raises(ValueError):
        theorem2_check([0.0, 0.0], [1.0, 0.0])


def test_theorem3_worked_example():
    check = theorem3_check([1.0, 0, 0, 0], [0.6, 0.3, 0.3, 0.3], tau=1)
    assert check == (True, True)


def test_theorem3_padded_estimate():
    w = np.array([1.0, 0, 0, 0, 0], dtype=complex)
    w_hat = np.array([1.0, 0.3, 0.3, 0, 0], dtype=complex)  # tau=2 small extras
    check = theorem3_check(w, w_hat, tau=2)
    assert check.conclusion


def test_theorem3_threshold_looser_than_theorem2():
    # premise radius q^2 (1 - 1/(tau+2)) exceeds q^2/2 for any tau >= 1
    for tau in (1, 2, 3, 100):
        assert 1.0 - 1.0 / (tau + 2.0) > 0.5


def test_theorem3_dimension_guard():
    with pytest.raises(ValueError):
        theorem3_check([1.0, 0.0], [1.0, 0.0], tau=1)  # s + tau = N


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_theorem2_implication_property(data):
    rng_seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    n = int(rng.integers(2, 17))
    s = int(rng.integers(1, n // 2 + 1))
    w = np.zeros(n, dtype=complex)
    pos = rng.choice(n, size=s, replace=False)
    w[pos] = rng.uniform(0.3, 2.0, s) * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
    q2 = (np.abs(w[pos]) ** 2).min()
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u *= math.sqrt(rng.uniform(0.01, 0.99) * q2 / 2) / np.linalg.norm(u)
    check = theorem2_check(w, w + u)
    assert check.premise and check.conclusion


def test_sign_of_a_scalar_is_the_array_answer():
    # NaN gets sign 0 and so does a finite value whose magnitude overflows,
    # whether it comes as a scalar, a 0-d array or an array entry
    big = complex(1.7e308, 1.7e308)
    with np.errstate(all="ignore"):
        for v in (complex(math.nan, math.nan), math.nan, big, 2.0 - 1.0j, -0.0, 0j):
            want = complex_sign(np.array([v]))[0]
            for got in (complex_sign(v), complex_sign(np.array(v))):
                assert np.ndim(got) == 0
                assert np.array(got).tobytes() == np.array(want).tobytes()
        assert complex_sign(big) == 0
