import itertools
import math
import pickle
import re
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselms import estimators, harness, sensing
from sparselms.estimators import Estimator, EstimatorConfig, EstimatorState, prediction_error
from sparselms.experiments import get_experiment
from sparselms.harness import run_trial
from sparselms.sensing import (
    MeasurementSample,
    RepeatedPass,
    SensingConfig,
    fourier_rows,
    make_stream,
)
from sparselms.signals import SignalSpec, multisine, true_spectrum
from sparselms.sparse_ops import keep_mask
from sparselms.tracker import TrackerParams, make_tracker, tracker_update


def sample_of(x, y):
    return MeasurementSample(np.asarray(x, dtype=complex), y)


# -- prediction error ---------------------------------------------------------


def test_error_with_zero_weights_is_observation():
    st = EstimatorState.zeros(3)
    assert prediction_error(st, sample_of([1, 1, 1], 2.5)) == 2.5


def test_error_hand_computed_conjugation():
    st = EstimatorState(w=np.array([0.5j]))
    e = prediction_error(st, sample_of([-1j], 1.0))
    assert e == pytest.approx(1.5)


def test_error_at_true_spectrum_noiseless():
    spec = SignalSpec(n=32, sines=2, bins=(3, 11))
    z = multisine(spec)
    st = EstimatorState(w=true_spectrum(spec))
    cfg = SensingConfig(n=32, m=32, mode=RepeatedPass(1), seed=0)
    for sample in make_stream(cfg, [z]):
        assert abs(prediction_error(st, sample)) < 1e-10


def test_error_dimension_mismatch():
    st = EstimatorState.zeros(3)
    with pytest.raises(ValueError):
        prediction_error(st, sample_of([1, 1], 1.0))


_EDGE_GRID = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e300, math.inf, -math.inf, math.nan]


def test_error_of_a_python_float_y_is_numpys_float64_minus_complex128(monkeypatch):
    # make_stream's y is a Python float and is subtracted in Python; y and both
    # parts of the dot run over the edge grid, signed zeros and NaN included.
    # A hand-built y of another kind (numpy float, int, complex) gives numpy's
    # difference of that y too.
    st = EstimatorState.zeros(1)
    dot = np.complex128(0)
    monkeypatch.setattr(estimators, "np", SimpleNamespace(vdot=lambda w, x: dot))
    for y, re, im in itertools.product(_EDGE_GRID, repeat=3):
        dot = np.complex128(complex(re, im))
        kinds = [y, np.float64(y), complex(y, re), np.complex128(complex(re, y))]
        if y in (0.0, 1.0, -1.0):
            kinds.append(int(y))
        for yk in kinds:
            e = prediction_error(st, MeasurementSample(np.ones(1, dtype=complex), yk))
            assert type(e) is complex
            with np.errstate(all="ignore"):
                ref = (np.float64(yk) if type(yk) is float else yk) - dot
            assert _bits(np.complex128(e)) == _bits(ref), (yk, re, im)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex64, ">c16"])
def test_prediction_error_rejects_an_iterate_that_is_not_complex128(dtype):
    w = np.array([0.75, -0.5, 0.25]).astype(dtype)
    with pytest.raises(ValueError, match=re.escape(
            f"state.w has dtype {np.dtype(dtype)}, expected complex128")):
        prediction_error(EstimatorState(w=w), sample_of([1, 5, -7], 0.75))


def test_prediction_error_accepts_an_unpickled_complex128_iterate():
    # unpickling gives a dtype equal to complex128 but not numpy's own object
    w = np.array([0.75, -0.5j, 0.25])
    copy = pickle.loads(pickle.dumps(w))
    assert copy.dtype is not w.dtype
    sample = sample_of([1, 5, -7], 0.75)
    e, want = (prediction_error(EstimatorState(w=v), sample) for v in (copy, w))
    assert _bits(np.complex128(e)) == _bits(np.complex128(want))


# -- single update rules, hand-computed ---------------------------------------


def step_from(variant, w, sample, **params):
    """One Estimator.step from iterate w, burn-in off; returns the estimator."""
    est = Estimator(EstimatorConfig(variant, burn_in=0, **params), len(w))
    est.state.w = np.array(w, dtype=complex)
    est.step(sample)
    return est


def test_lms_zero_error_no_change():
    est = step_from("lms", [1.0 + 0j, -2.0], sample_of([1, 1], 1.0 + -2.0), mu=0.5)
    np.testing.assert_array_equal(est.state.w, [1.0, -2.0])


def test_lms_real_example():
    est = step_from("lms", np.zeros(2), sample_of([1, 1], 1.0), mu=0.5)
    np.testing.assert_allclose(est.state.w, [0.5, 0.5])
    assert est.state.n == 1


def test_lms_conjugation_example():
    est = step_from("lms", np.zeros(1), sample_of([1j], 1.0), mu=0.5)
    np.testing.assert_allclose(est.state.w, [0.5j])
    assert np.vdot(est.state.w, [1j]) == pytest.approx(0.5)


def test_za_shrinks_toward_zero():
    est = step_from("za", [1.0 + 0j, -1.0], sample_of([1, 1], 0.0), mu=0.5, rho=0.01)
    np.testing.assert_allclose(est.state.w, [0.99, -0.99])


def test_za_zero_weights_reduce_to_lms():
    a = step_from("za", np.zeros(2), sample_of([1, -1], 2.0), mu=0.3, rho=0.05)
    b = step_from("lms", np.zeros(2), sample_of([1, -1], 2.0), mu=0.3)
    np.testing.assert_array_equal(a.state.w, b.state.w)


def test_rza_hand_example():
    est = step_from("rza", [1.0 + 0j], sample_of([1], 1.0), mu=0.5, rho=0.005, epsilon=2.25)
    np.testing.assert_allclose(est.state.w, [1 - 0.005 / 3.25])


def test_rza_large_weights_nearly_unpenalized():
    w0 = 50.0
    est = step_from("rza", [w0 + 0j], sample_of([1], w0), mu=0.5, rho=0.01, epsilon=2.0)
    assert abs(est.state.w[0] - w0) < 0.01 / (2.0 * w0)


def test_l0_hand_example():
    est = step_from("l0", [0.5 + 0j], sample_of([1], 0.5), mu=0.5, rho=0.005, beta=0.5)
    np.testing.assert_allclose(est.state.w, [0.4961060], atol=5e-8)


def test_l0_huge_beta_reduces_to_lms():
    a = step_from("l0", [1.0 + 0j, -2.0], sample_of([1, 1], 0.5), mu=0.4, rho=0.01, beta=1e6)
    b = step_from("lms", [1.0 + 0j, -2.0], sample_of([1, 1], 0.5), mu=0.4)
    np.testing.assert_allclose(a.state.w, b.state.w, atol=1e-15)


def test_sza_hand_example():
    est = step_from(
        "sza", [2.0 + 0j, -2.0, 1.0, 0.0], sample_of([0, 0, 0, 0], 0.0), mu=0.25, rho=0.01, s=2
    )
    np.testing.assert_allclose(est.state.w, [2.0, -2.0, 0.99, 0.0])


def test_hard_step_tie_keeps_everything():
    est = step_from("hard", np.zeros(3), sample_of([1, 1, 1], 3.0), mu=0.4, s=1)
    np.testing.assert_allclose(est.state.w, [1.2, 1.2, 1.2])


def test_hard_step_thresholds_unchanged_vector():
    est = step_from("hard", [1.0 + 0j, 0.2, 0.0], sample_of([0, 0, 0], 0.0), mu=0.5, s=1)
    np.testing.assert_array_equal(est.state.w, [1.0, 0.0, 0.0])


def test_hard_step_zeros_are_exact():
    est = Estimator(EstimatorConfig("hard", mu=0.05, s=3, burn_in=0), 8)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est.step(MeasurementSample(x, rng.standard_normal()))
        zeroed = est.state.w == 0
        assert zeroed.sum() >= 5


def test_hard_l0_composes_penalty_and_threshold():
    est = step_from(
        "hard_l0", [0.5 + 0j], sample_of([1], 0.5), mu=0.5, rho=0.005, beta=0.5, s=1
    )
    np.testing.assert_allclose(est.state.w, [0.4961060], atol=5e-8)


# -- penalties against the reference formulas ------------------------------------
#
# The formulas below are the penalties as first written, out of place; the
# in-place forms must give the same bits, NaN handling included.


def _ref_complex_sign(v):
    v = np.asarray(v)
    mag = np.abs(v)
    out = np.zeros(v.shape, dtype=np.result_type(v.dtype, float))
    # a complex entry whose magnitude is below the normal range has sign 0
    nz = mag >= np.finfo(float).tiny if v.dtype.kind == "c" else mag > 0
    out[nz] = v[nz] / mag[nz]
    return out


def _ref_selective(v, s):
    pen = _ref_complex_sign(v)
    pen[keep_mask(v, s)] = 0
    return pen


_edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0, -1.0, 1e300, -1.7976931348623157e308,
     1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
_any_float = st.one_of(_edge_floats, st.floats(allow_nan=True, allow_infinity=True))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


# 1j * inf is nan + inf j
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    re=st.lists(_any_float, min_size=1, max_size=16),
    im=st.lists(_any_float, min_size=16, max_size=16),
    real=st.booleans(),
    weight=st.floats(min_value=1e-300, max_value=1e300),
    s=st.integers(min_value=1, max_value=16),
)
def test_penalties_match_the_reference_formulas_bit_for_bit(re, im, real, weight, s):
    w = np.array(re) if real else np.array(re) + 1j * np.array(im[: len(re)])
    # the penalties' scalar operands, as the 0-d arrays a step passes, against
    # the reference formulas' Python floats
    k = estimators._Scalars(0.1, weight, weight)
    with np.errstate(all="ignore"):
        assert _bits(estimators.complex_sign(w)) == _bits(_ref_complex_sign(w))
        assert _bits(estimators._za(w, k, None)) == _bits(_ref_complex_sign(w))
        rza = _ref_complex_sign(w) / (1.0 + weight * np.abs(w))
        assert _bits(estimators._rza(w, k, None)) == _bits(rza)
        l0 = _ref_complex_sign(w) * np.exp(-weight * np.abs(w))
        assert _bits(estimators._l0(w, k, None)) == _bits(l0)
    assert not estimators.complex_sign(np.array([math.nan, complex(math.nan, 1.0)])).any()
    s = min(s, w.size)
    if np.isfinite(w).all():
        with np.errstate(all="ignore"):
            assert _bits(estimators._selective(w, k, s)) == _bits(_ref_selective(w, s))
    else:
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite coefficient"):
            estimators._selective(w, k, s)


# -- reduction lattice ---------------------------------------------------------


def _random_case(rng, n=6):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.exp(-2j * np.pi * rng.integers(0, n) * np.arange(n) / n)
    y = float(rng.standard_normal())
    return w, MeasurementSample(x, y)


@pytest.mark.parametrize("case", range(20))
def test_reduction_lattice_exact(case):
    rng = np.random.default_rng(case)
    w, sample = _random_case(rng)
    mu, rho, beta, eps, n = 0.1, 0.01, 0.7, 1.3, w.size

    def stepped(variant, **params):
        return step_from(variant, w, sample, mu=mu, **params).state.w

    ref = stepped("lms")
    np.testing.assert_array_equal(stepped("za", rho=0.0), ref)
    np.testing.assert_array_equal(stepped("rza", rho=0.0, epsilon=eps), ref)
    np.testing.assert_array_equal(stepped("l0", rho=0.0, beta=beta), ref)
    np.testing.assert_array_equal(stepped("sza", rho=rho, s=n), ref)  # P_N = 0
    np.testing.assert_array_equal(stepped("hard", s=n), ref)
    # exp(0) = 1
    np.testing.assert_array_equal(stepped("l0", rho=rho, beta=0.0), stepped("za", rho=rho))
    np.testing.assert_array_equal(
        stepped("hard_l0", rho=rho, beta=beta, s=n), stepped("l0", rho=rho, beta=beta)
    )


# -- config validation ----------------------------------------------------------


def test_config_rejects_bad_mu():
    for mu in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            EstimatorConfig("lms", mu=mu)


@pytest.mark.parametrize("field", ["mu", "rho", "beta", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    params = {"mu": 0.1, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
        EstimatorConfig("za", **params)


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        EstimatorConfig("nlms", mu=0.5)


def test_config_variant_case_insensitive():
    assert EstimatorConfig("HARD", mu=0.5, s=2).variant == "hard"


def test_estimator_requires_budget_source():
    with pytest.raises(ValueError, match="hard needs a fixed s or a tracker"):
        Estimator(EstimatorConfig("hard", mu=0.5), n_dim=8)


def test_estimator_rejects_bad_s():
    with pytest.raises(ValueError, match=r"need 1 <= s <= 8, got s=9"):
        Estimator(EstimatorConfig("hard", mu=0.5, s=9), n_dim=8)


def test_estimator_rejects_unstable_step():
    with pytest.raises(ValueError, match=r"0 < mu\*N < 2, got mu=0.25, N=8, mu\*N=2.0$"):
        Estimator(EstimatorConfig("lms", mu=0.25), n_dim=8)
    with pytest.raises(ValueError, match=r"mu=0.05, N=256, mu\*N=12.8$"):
        Estimator(EstimatorConfig("lms", mu=0.05), n_dim=256)  # diverges to 1e42
    Estimator(EstimatorConfig("lms", mu=0.2499), n_dim=8)


# -- burn-in semantics -----------------------------------------------------------


def test_hard_burn_in_skips_threshold():
    cfg = EstimatorConfig("hard", mu=0.1, s=1, burn_in=2)
    est = Estimator(cfg, n_dim=3)
    s1 = MeasurementSample(np.ones(3, dtype=complex), 1.0)
    est.step(s1)
    est.step(s1)
    assert np.count_nonzero(est.state.w) == 3  # still dense
    est.step(s1)
    assert np.count_nonzero(est.state.w) == 3  # all tie after symmetric input
    s2 = MeasurementSample(np.array([1.0, 1.0j, -1.0]), 0.5)
    est.step(s2)
    assert np.count_nonzero(est.state.w) < 3


def test_hard_l0_burn_in_keeps_penalty_active():
    cfg = EstimatorConfig("hard_l0", mu=0.001, rho=0.01, beta=0.0, s=1, burn_in=5)
    est = Estimator(cfg, n_dim=2)
    est.state.w = np.array([1.0 + 0j, -1.0])
    zero_x = MeasurementSample(np.zeros(2, dtype=complex), 0.0)
    est.step(zero_x)
    np.testing.assert_allclose(est.state.w, [0.99, -0.99])  # shrunk, not thresholded


def test_penalized_variants_burn_in_plain_lms():
    for variant in ("za", "rza", "l0", "sza"):
        cfg = EstimatorConfig(variant, mu=0.001, rho=0.5, beta=1.0, epsilon=1.0,
                              s=1, burn_in=1)
        est = Estimator(cfg, n_dim=2)
        est.state.w = np.array([1.0 + 0j, -1.0])
        est.step(MeasurementSample(np.zeros(2, dtype=complex), 0.0))
        np.testing.assert_array_equal(est.state.w, [1.0, -1.0])  # no penalty yet


def test_occupancy_support_shortcut():
    from sparselms.tracker import TrackerParams

    # the passing set becomes the support directly instead of a top-s cut
    params = TrackerParams(lam=1.0, xi=0.0, q_star=0.3, use_support=True)
    est = Estimator(EstimatorConfig("hard", mu=0.1, burn_in=0), 3, params)
    est.state.w = np.array([1.0 + 0j, 0.5, 0.1])
    est.step(MeasurementSample(np.zeros(3, dtype=complex), 0.0))
    np.testing.assert_array_equal(est.state.w, [1.0, 0.5, 0.0])  # 0.1 below q*


def test_occupancy_support_shortcut_empty_set_falls_back():
    from sparselms.tracker import TrackerParams

    params = TrackerParams(lam=1.0, xi=0.0, q_star=10.0, use_support=True)
    est = Estimator(EstimatorConfig("hard", mu=0.1, burn_in=0), 3, params)
    est.state.w = np.array([1.0 + 0j, 0.5, 0.1])
    est.step(MeasurementSample(np.zeros(3, dtype=complex), 0.0))
    assert np.count_nonzero(est.state.w) == 1  # clamped budget keeps the largest


def test_occupancy_mask_applied_with_fixed_budget():
    from sparselms.tracker import TrackerParams

    # a fixed s does not switch the mask off: top-1 would keep only 1.0
    params = TrackerParams(lam=1.0, xi=0.0, q_star=0.3, use_support=True)
    est = Estimator(EstimatorConfig("hard", mu=0.1, s=1, burn_in=0), 3, params)
    est.state.w = np.array([1.0 + 0j, 0.5, 0.1])
    est.step(MeasurementSample(np.zeros(3, dtype=complex), 0.0))
    np.testing.assert_array_equal(est.state.w, [1.0, 0.5, 0.0])
    assert est.last_s == 1


def test_occupancy_budget_is_clamped_mask_count():
    from sparselms.tracker import TrackerParams

    zero_x = MeasurementSample(np.zeros(3, dtype=complex), 0.0)
    for q_star, expected in ((0.3, 2), (10.0, 1)):
        params = TrackerParams(lam=1.0, xi=0.0, q_star=q_star, use_support=True)
        est = Estimator(EstimatorConfig("hard", mu=0.1, burn_in=0), 3, params)
        est.state.w = np.array([1.0 + 0j, 0.5, 0.1])
        est.step(zero_x)
        assert est.last_s == expected


def test_last_s_none_in_burn_in_then_budget():
    from sparselms.tracker import TrackerParams, estimate_sparsity

    x = MeasurementSample(np.array([1.0, 1.0j, -1.0]), 0.5)
    fixed = Estimator(EstimatorConfig("sza", mu=0.1, rho=0.01, s=2, burn_in=2), 3)
    for _ in range(2):
        fixed.step(x)
        assert fixed.last_s is None
    fixed.step(x)
    assert fixed.last_s == 2

    params = TrackerParams(lam=0.9, xi=0.5, q_star=0.05)
    tracked = Estimator(EstimatorConfig("hard", mu=0.1, burn_in=1), 3, params)
    tracked.step(x)
    assert tracked.last_s is None
    for _ in range(3):
        expected = estimate_sparsity(tracked.tracker, tracked.state.w)
        tracked.step(x)
        assert tracked.last_s == expected


def test_last_s_none_without_thresholding():
    from sparselms.tracker import TrackerParams

    x = MeasurementSample(np.array([1.0, 1.0j, -1.0]), 0.5)
    for variant in ("lms", "za", "rza", "l0"):
        cfg = EstimatorConfig(variant, mu=0.1, rho=0.01, beta=1.0, burn_in=0)
        est = Estimator(cfg, 3, TrackerParams())
        for _ in range(3):
            est.step(x)
            assert est.last_s is None


@pytest.mark.parametrize(
    "config, params, updated",
    [
        (EstimatorConfig("hard", mu=0.1), TrackerParams(xi=0.5), True),
        (EstimatorConfig("hard", mu=0.1), TrackerParams(xi=0.0), False),  # w - 0 err = w
        (EstimatorConfig("hard", mu=0.1, s=1), TrackerParams(xi=0.5), False),
        (EstimatorConfig("hard", mu=0.1, s=1), TrackerParams(xi=0.5, use_support=True), True),
        (EstimatorConfig("sza", mu=0.1, rho=0.01, s=1),
         TrackerParams(xi=0.5, use_support=True), False),
        (EstimatorConfig("lms", mu=0.1), TrackerParams(xi=0.5), False),
    ],
)
def test_tracker_is_updated_only_when_a_budget_reads_its_error(config, params, updated):
    est = Estimator(config, 3, params)
    est.step(MeasurementSample(np.array([1.0, 1.0j, -1.0]), 0.5))
    assert (est.tracker.kappa == 1.0) is updated
    assert bool(est.tracker.err.any()) is updated


# -- noiseless identification -----------------------------------------------------


@pytest.mark.parametrize("variant", ["lms", "za", "rza", "l0", "sza", "hard", "hard_l0"])
@pytest.mark.parametrize("mu_ref", [1.0, 0.5])
def test_noiseless_full_sampling_identification(variant, mu_ref):
    n = 32
    spec = SignalSpec(n=n, sines=2, bins=(3, 9))
    z = multisine(spec)
    w_true = true_spectrum(spec)
    mu = mu_ref / n
    cfg = EstimatorConfig(
        variant,
        mu=mu,
        rho=mu * 1e-6,
        beta=2.0,
        epsilon=1.0,
        s=4 if variant in ("sza", "hard", "hard_l0") else None,
        burn_in=n if variant in ("hard", "hard_l0") else 0,
    )
    est = Estimator(cfg, n)
    sens = SensingConfig(n=n, m=n, mode=RepeatedPass(50), seed=1)
    for sample in make_stream(sens, [z]):
        est.step(sample)
    err = np.abs(est.state.w - w_true) ** 2
    rmse = err.sum() / (np.abs(w_true) ** 2).sum()
    assert 10 * math.log10(rmse) < -80.0


# -- support path against the dense rule --------------------------------------------
#
# The oracle is the same Estimator with the support path declined, so every step
# runs the dense rule: full gradient step, full penalty, top-s cut.


@contextmanager
def dense_rule():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_support", lambda *args: None)
        yield


def dense_step(est, sample):
    with dense_rule():
        return est.step(sample)


def _trial_estimator(monkeypatch):
    """A function that returns the Estimator the next run_trial builds."""
    made = []

    class Kept(Estimator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(harness, "Estimator", Kept)
    return lambda: made[-1]


def assert_bitwise_equal(fast, dense, e_fast, e_dense):
    assert fast.state.w.tobytes() == dense.state.w.tobytes()
    assert np.complex128(e_fast).tobytes() == np.complex128(e_dense).tobytes()
    assert fast.last_s == dense.last_s


def _sparse_truth(rng, n, k):
    w = np.zeros(n, dtype=complex)
    w[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return w


def _poisoned_copy(w, j, value):
    w = w.copy()
    w[j] = value
    return w


def _pair(variant, n, s, burn_in, mu_ref=0.5, tracked=False):
    cfg = EstimatorConfig(
        variant, mu=mu_ref / n, rho=0.02 / n, beta=0.5, s=s, burn_in=burn_in
    )
    params = TrackerParams(lam=0.9, xi=0.5, q_star=0.05) if tracked else None
    return Estimator(cfg, n, params), Estimator(cfg, n, params)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32]),
    k=st.integers(1, 3),
    extra=st.integers(0, 4),  # s above the true sparsity: spare slots nearly tie
    variant=st.sampled_from(["hard", "hard_l0"]),
    tracked=st.booleans(),  # the tracker's budget changes between steps
    burn_in=st.integers(0, 40),
    mu_ref=st.floats(0.1, 1.0),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
)
def test_support_path_matches_dense_rule(
    seed, n, k, extra, variant, tracked, burn_in, mu_ref, noise
):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)
    s = None if tracked else min(k + extra, n)
    fast, dense = _pair(variant, n, s, burn_in, mu_ref, tracked)
    for _ in range(150):
        x = rows[rng.integers(n)]
        draw = rng.random()
        if draw < 0.05:
            y = np.vdot(fast.state.w, x)  # e exactly 0
        else:
            y = np.vdot(w_true, x) + noise * rng.standard_normal()
        if draw > 0.98:  # a reassigned, dense iterate must go back to the dense rule
            nudge = 1e-3 * rng.standard_normal(n)
            fast.state.w = fast.state.w + nudge
            dense.state.w = dense.state.w + nudge
        sample = MeasurementSample(x, y)
        assert_bitwise_equal(fast, dense, fast.step(sample), dense_step(dense, sample))


def _stable_run(variant="hard", n=32, k=2, steps=400, seed=3):
    """A fixed-budget pair after ``steps`` noiseless steps, and its stream."""
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)

    def sample():
        x = rows[rng.integers(n)]
        return MeasurementSample(x, np.vdot(w_true, x))

    fast, dense = _pair(variant, n, k, burn_in=n)
    for _ in range(steps):
        smp = sample()
        assert_bitwise_equal(fast, dense, fast.step(smp), dense_step(dense, smp))
    return fast, dense, sample


def _count_cuts(monkeypatch):
    calls = []
    cut = estimators.hard_threshold

    def counted(v, s):
        calls.append(s)
        return cut(v, s)

    monkeypatch.setattr(estimators, "hard_threshold", counted)
    return calls


def test_support_path_skips_the_cut_until_w_is_reassigned(monkeypatch):
    fast, _, sample = _stable_run()
    calls = _count_cuts(monkeypatch)
    for _ in range(100):
        fast.step(sample())
    assert len(calls) == 0
    fast.state.w = fast.state.w.copy()
    fast.step(sample())
    assert len(calls) == 1  # the reassigned iterate went through the dense cut
    fast.step(sample())
    assert len(calls) == 1


def test_support_path_needs_unit_magnitude_rows(monkeypatch):
    fast, _, sample = _stable_run()
    calls = _count_cuts(monkeypatch)
    smp = sample()
    fast.step(MeasurementSample(smp.x.copy(), smp.y))  # not a table row
    assert len(calls) == 1


@pytest.mark.parametrize(
    "source",
    ["copied-row", "unregistered-stream", "unregistered-table", "reassigned-x", "rebuilt-table"],
)
def test_support_path_takes_the_dense_rule_off_a_registered_table(monkeypatch, source):
    # a row is a unit row only as a view of the table the estimator took when
    # it was built; every other row, a row of a table that fourier_rows has
    # rebuilt since included, runs the dense cut, bit for bit
    if source == "unregistered-stream":  # the roots fail the bound: no table is taken
        monkeypatch.setattr(sensing, "UNIT_SQ_MAG_BOUND", 1.0 - 1e-3)
    fast, dense, _ = _stable_run()
    n = fast.state.w.size
    cfg = SensingConfig(n=n, m=1, mode=RepeatedPass(1), seed=0)
    (streamed,) = make_stream(cfg, [np.full(n, 0.25)])
    copied = MeasurementSample(fourier_rows(n)[3].copy(), 0.25)
    if source == "copied-row":
        samples = [copied]
    elif source == "unregistered-table":
        samples = [MeasurementSample(fourier_rows(n).copy()[3], 0.25)]
    elif source == "unregistered-stream":
        samples = [streamed, copied]  # a copied row has no base to match either
    elif source == "rebuilt-table":
        fourier_rows.cache_clear()
        samples = [MeasurementSample(fourier_rows(n)[3], 0.25)]
    else:
        streamed.x = streamed.x.copy()
        samples = [streamed]
    for smp in samples:
        calls = _count_cuts(monkeypatch)
        e = fast.step(smp)
        assert len(calls) == 1
        assert_bitwise_equal(fast, dense, e, dense_step(dense, smp))


def test_support_path_never_certifies_non_finite():
    c = 0.01 + 0.01j
    assert estimators._certified(np.array([1.0, 2.0j]), c)
    assert not estimators._certified(np.array([1.0, math.nan]), c)
    assert not estimators._certified(np.array([1.0, math.inf]), c)
    assert not estimators._certified(np.array([complex(math.inf, 1.0)]), c)
    assert not estimators._certified(np.array([1.0, 2.0]), complex(math.nan, 0.0))
    assert not estimators._certified(np.array([1.0, 2.0]), complex(math.inf, 0.0))


def test_support_path_margin_and_exact_zero_error():
    # an entry tying with |c| is not certified; e = 0 certifies any nonzero kept set
    c = 0.6 + 0.8j
    assert not estimators._certified(np.array([2.0, 1.0]), c)
    assert estimators._certified(np.array([2.0, 1.0 + 1e-9]), c)
    assert estimators._certified(np.array([2.0, 1e-150]), 0j)
    assert not estimators._certified(np.array([2.0, 0.0]), 0j)


def test_support_path_margin_below_the_normal_range():
    # squares of subnormal size round coarsely: an off-support fl(c x_k) can
    # square to twice fl(|c|^2), so an entry tying with it must not pass
    c = np.complex128(2.3e-162)
    off = c * fourier_rows(8)[1][1]
    off_m2 = off.real * off.real + off.imag * off.imag
    assert off_m2 == 2.0 * (c.real * c.real)
    assert not estimators._certified(np.array([2.0, off]), c)


@pytest.mark.parametrize("variant", ["hard", "hard_l0"])
def test_support_path_reports_nan_like_the_dense_rule(variant):
    fast, dense, sample = _stable_run(variant)
    kept = np.flatnonzero(fast.state.w)
    for est in (fast, dense):
        est.state.w = _poisoned_copy(est.state.w, kept[0], math.nan)
    smp = sample()
    with pytest.raises(ValueError, match="non-finite") as fast_err:
        fast.step(smp)
    with pytest.raises(ValueError, match="non-finite") as dense_err:
        dense_step(dense, smp)
    assert str(fast_err.value) == str(dense_err.value)


@pytest.mark.parametrize("name", ["exp2", "exp3"])
def test_registry_trajectories_match_dense_rule(monkeypatch, name):
    spec = get_experiment(name, trials=1, n=64)
    built = _trial_estimator(monkeypatch)
    for algo in spec.algorithms:
        fast = run_trial(spec, algo, 0)
        general = built().general_steps
        with dense_rule():
            dense = run_trial(spec, algo, 0)
        # the oracle takes no support step, so it is not the fast path again;
        # the fast path takes it on every hard and hard_l0 label
        steps = dense.rmse_lin_trajectory.size
        assert built().general_steps == steps
        if algo.estimator.variant in estimators.PROJECTED:
            assert general < steps, algo.label
        assert fast.rmse_lin_trajectory.tobytes() == dense.rmse_lin_trajectory.tobytes()
        if fast.s_trajectory is None:
            assert dense.s_trajectory is None
        else:
            assert fast.s_trajectory.tobytes() == dense.s_trajectory.tobytes()
        assert fast.final_support == dense.final_support


def test_an_array_a_record_is_taken_on_is_read_only():
    # a hard cut's array, HARD-EST's after a certified step and sza's iterate
    n, k = 32, 2
    rng = np.random.default_rng(5)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)
    hard = Estimator(EstimatorConfig("hard", mu=0.5 / n, s=k), n)
    tracked = Estimator(
        EstimatorConfig("hard", mu=0.5 / n, burn_in=n), n,
        TrackerParams(lam=0.9, xi=0.5 / n, q_star=0.05),
    )
    sza = Estimator(EstimatorConfig("sza", mu=0.5 / n, rho=0.02 / n, s=k), n)

    def sample():
        x = rows[rng.integers(n)]
        return MeasurementSample(x, np.vdot(w_true, x))

    hard.step(sample())  # the first active step cuts
    certified = False
    for _ in range(400):
        smp, before = sample(), tracked.state.w
        tracked.step(smp)
        sza.step(smp)
        certified = tracked.state.n > n and tracked.state.w is before
    assert certified  # the last step of HARD-EST updated its cut's array
    for est in (hard, tracked, sza):
        with pytest.raises(ValueError, match="read-only"):
            est.state.w[0] = 1.0
        est.state.w = est.state.w.copy()  # a new array is the way in
        est.state.w[0] = 1.0
        est.step(sample())


def test_record_predicates_are_strict_at_their_margins():
    # a drift that has spent the whole margin proves nothing: at D = sigma a
    # corrected magnitude may sit on q* itself, and at 2D + delta D = gap two
    # magnitudes may tie at the s-th place
    rec = estimators.Record(np.arange(1), top=1.0, margin=0.5)
    for drift, reusable in ((0.5, False), (math.nextafter(0.5, 0.0), True),
                            (math.nan, False), (math.inf, False)):
        rec.drift = drift
        assert rec.count_reusable() is reusable
    rec.drift = 0.25
    rec.margin = 2.0 * 0.25 + estimators._DELTA * 0.25
    assert not rec.set_kept()
    rec.margin = math.nextafter(rec.margin, math.inf)
    assert rec.set_kept()


def test_the_count_is_read_from_k_only_while_xi_b_is_below_q_star():
    # at _step_bound(xi B, 0) = q* an entry off K may sit on q* itself
    rec = estimators.Record(np.arange(1), top=1.0, margin=0.5)
    bound = 0.25
    params = TrackerParams(xi=0.5, q_star=estimators._step_bound(0.5 * bound, 0.0))
    assert estimators._budget_support(rec, params, bound) is None
    below = bound * (1.0 - 1e-15)
    assert estimators._step_bound(0.5 * below, 0.0) < params.q_star
    assert estimators._budget_support(rec, params, below) is rec.kept
    for unknown in (math.inf, math.nan):
        assert estimators._budget_support(rec, params, unknown) is None


def test_a_count_is_decided_from_w_only_past_the_reach():
    # (e) decides nothing at a slack of exactly 0, nor on NaN, nor for a q*
    # whose overflowing magnitudes it does not cover
    q_star = 0.05
    v = np.array([0.0, 2.0j])  # the nearest is 0, at q* from q*
    reach = q_star * (1.0 - estimators._DELTA)
    assert estimators._count_by_bound(v, q_star, reach) is None
    count, slack = estimators._count_by_bound(v, q_star, math.nextafter(reach, 0.0))
    assert count == 1 and slack > 0.0
    assert estimators._count_by_bound(np.array([math.nan, 2.0]), q_star, 0.0) is None
    assert estimators._count_by_bound(v, 1e200, 0.0) is None
    assert estimators._count_by_bound(np.zeros(0, dtype=complex), q_star, reach)[0] == 0


# -- budget path against the full query -----------------------------------------------
#
# The oracle is the same Estimator with the budget path declined, so every tracker
# budget is the full O(N) query; the support path runs in both.


@contextmanager
def full_query():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_budget_support", lambda *args: None)
        yield


def full_query_step(est, sample):
    with full_query():
        return est.step(sample)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32]),
    k=st.integers(1, 3),
    # sza's record is on its dense iterate, where a count over K is not the full one
    variant=st.sampled_from(["hard", "hard_l0", "sza"]),
    xi_ref=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    lam=st.sampled_from([0.2, 0.7, 0.95]),  # a small lambda moves err fast
    near=st.floats(0.8, 1.2),  # q* near a coefficient magnitude: the slack runs out
    rho_ref=st.sampled_from([0.0, 0.02, 0.5]),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    # share of steps with e = 0 after step 100, where only rho moves w
    exact=st.sampled_from([0.05, 0.5, 1.0]),
)
# an entry above q* that only the l0 shrink moves: reusing the count needs rho
@example(seed=3, n=16, k=3, variant="hard_l0", xi_ref=0.0, lam=0.7, near=0.95, rho_ref=0.5,
         noise=0.0, exact=1.0)
def test_budget_path_matches_the_full_query(
    seed, n, k, variant, xi_ref, lam, near, rho_ref, noise, exact
):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)
    q_star = near * float(np.abs(w_true[np.flatnonzero(w_true)]).min())
    rho = rho_ref / n if variant != "hard" else 0.0
    cfg = EstimatorConfig(variant, mu=0.5 / n, rho=rho, beta=0.5, burn_in=n)
    params = TrackerParams(lam=lam, xi=xi_ref / n, q_star=q_star)
    fast, oracle = Estimator(cfg, n, params), Estimator(cfg, n, params)
    for step in range(200):
        x = rows[rng.integers(n)]
        draw = rng.random()
        if rng.random() < (exact if step >= 100 else 0.05):
            y = np.vdot(fast.state.w, x)  # e exactly 0
        else:
            y = np.vdot(w_true, x) + noise * rng.standard_normal()
        if draw > 0.99:
            x = x.copy()  # a non-unit row: the tracker's bound becomes unknown
        if 0.98 < draw <= 0.99:  # a reassigned iterate, one entry poisoned or moved
            j, value = rng.integers(n), rng.choice([0.0, 2 * q_star, 1e150, math.nan])
            fast.state.w = _poisoned_copy(fast.state.w, j, value)
            oracle.state.w = _poisoned_copy(oracle.state.w, j, value)
        sample = MeasurementSample(x, y)
        with np.errstate(all="ignore"):
            try:
                e_fast = fast.step(sample)
            except ValueError as err:
                with pytest.raises(ValueError) as oracle_err:
                    full_query_step(oracle, sample)
                assert str(oracle_err.value) == str(err)
                return
            e_oracle = full_query_step(oracle, sample)
        assert_bitwise_equal(fast, oracle, e_fast, e_oracle)


def _exact_sq(z) -> Fraction:
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


# at scale 1e150 the cut's check squares the squares
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16]),
    lam=st.sampled_from([0.2, 0.9, 1.0]),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e150]),
)
# errors below the normal range: the advance needs its absolute term
@example(seed=0, n=8, lam=0.9, scale=1e-315)
def test_error_bound_covers_the_tracker_error_and_a_full_query_resets_it(seed, n, lam, scale):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    cfg = EstimatorConfig("hard", mu=0.5 / n, burn_in=5)
    queried, resets = [], []
    query, budget = estimators.estimate_sparsity, estimators.Estimator._tracker_budget

    def counted(state, w):
        queried.append(float(np.abs(state.err).max()))  # err as the query reads it
        return query(state, w)

    def checked(self, w):
        out = budget(self, w)
        if queried:  # the bound B a full query left: max |err_k|, rounded up
            resets.append(self._bound == queried.pop() * (1.0 + 1e-12))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "estimate_sparsity", counted)
        mp.setattr(estimators.Estimator, "_tracker_budget", checked)
        # the estimator holds the budget function it was built with
        est = Estimator(cfg, n, TrackerParams(lam=lam, xi=0.5 / n, q_star=0.05))
        for _ in range(60):
            x = rows[rng.integers(n)]
            if rng.random() < 0.1:
                x = x.copy()  # a non-unit row: the bound becomes unknown
            y = scale * complex(rng.standard_normal(), rng.standard_normal())
            est.step(MeasurementSample(x, y))
            if math.isfinite(est._bound):
                # est.tracker replays any deferred update first
                assert max(_exact_sq(z) for z in est.tracker.err) <= Fraction(est._bound) ** 2
    assert resets and all(resets)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([4, 8, 16]),
    lam=st.sampled_from([0.5, 0.99, 1.0]),
    ys=st.lists(
        st.tuples(st.one_of(_edge_floats, st.floats(-10.0, 10.0)), st.floats(-10.0, 10.0)),
        min_size=1, max_size=12,
    ),
)
def test_tracked_step_forms_b_in_the_work_array_as_tracker_update_of_e_conj_x(seed, n, lam, ys):
    # the step writes e* x into the tracker's work array and the update scales
    # it there; a tracker fed tracker_update(e* x) gives the same bits.  The
    # tracker runs during burn-in, which keeps a non-finite e from the cut.
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    cfg = EstimatorConfig("hard", mu=0.5 / n, burn_in=100)
    est = Estimator(cfg, n, TrackerParams(lam=lam, xi=0.5 / n))
    ref = make_tracker(est.tracker.params, n)
    with np.errstate(all="ignore"):
        for re, im in ys:
            x = rows[rng.integers(n)]
            y = re if im == 0.0 else complex(re, im)  # a Python float, or numpy's path
            e = est.step(MeasurementSample(x, y))
            tracker_update(ref, e.conjugate() * x)
            assert _bits(est.tracker.err) == _bits(ref.err)
            assert est.tracker.kappa == ref.kappa


# -- scalar arithmetic against numpy's complex128 ------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    y_re=_any_float,
    y_im=_any_float,
    w_re=st.lists(_any_float, min_size=4, max_size=4),
    w_im=st.lists(_any_float, min_size=4, max_size=4),
    mu=st.one_of(st.sampled_from([5e-324, 0.25]), st.floats(1e-300, 0.49)),
    zero_w=st.booleans(),
    t=st.integers(0, 3),
)
def test_step_scalars_match_numpy_complex128_bit_for_bit(y_re, y_im, w_re, w_im, mu, zero_w, t):
    # e = y - w^H x, c = mu e* and b = e* x as numpy scalars formed them; a zero
    # iterate gives e = y exactly, signed zeros included
    w = np.zeros(4, dtype=complex)
    if not zero_w:
        w.real, w.imag = w_re, w_im
    x = fourier_rows(4)[t]
    y = complex(y_re, y_im)
    with np.errstate(all="ignore"):
        e_ref = y - np.vdot(w, x)
        e_conj_ref = e_ref.conjugate()
        c_ref = mu * e_conj_ref
        est = Estimator(EstimatorConfig("lms", mu=mu), 4)
        est.state.w = w.copy()
        e = est.step(MeasurementSample(x, y))
        w_ref = w + c_ref * x
        tracked = Estimator(EstimatorConfig("hard", mu=mu, burn_in=1), 4, TrackerParams())
        tracked.state.w = w.copy()
        tracked.step(MeasurementSample(x, y))
        ref = make_tracker(TrackerParams(), 4)
        tracker_update(ref, e_conj_ref * x)
    assert type(e) is complex
    assert type(prediction_error(EstimatorState(w=w), MeasurementSample(x, y))) is complex
    assert _bits(np.complex128(e)) == _bits(e_ref)
    assert _bits(est.state.w) == _bits(w_ref)
    assert _bits(tracked.tracker.err) == _bits(ref.err)


@pytest.mark.parametrize(
    "name, label",
    [("exp2", "HARD-EST"), ("exp4-tracking", "HARD-EST-SIMPLE"), ("exp3", "HARD-EST")],
)
def test_budget_queries_mostly_skip_the_full_pass(monkeypatch, name, label):
    # At N = 64 the tracker budgets of these labels settle on a stable support,
    # so most queries reuse a count or read it from K.  (exp4's HARD-EST is not
    # here: at N = 64 its xi = 20/64 lets entries off K pass q* = 0.005, and most
    # of its queries need the full pass.)  Measured at trial 0: exp3's HARD-EST
    # ran 1 full pass and 34 counts on K (15 exact, 19 decided by B) for 1287
    # queries, hence its own bound.  Its tracker updates were deferred on 1266
    # steps, and exp2's HARD-EST on 1268 of 1274; HARD-EST-SIMPLE (xi = 0)
    # updates no tracker.
    on_k_share = 0.1 if name == "exp3" else 0.5
    spec = get_experiment(name, trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == label)
    built = _trial_estimator(monkeypatch)
    queries = int(np.count_nonzero(~np.isnan(run_trial(spec, algo, 0).s_trajectory)))
    est = built()
    assert queries == spec.sensing.total_samples - algo.estimator.burn_in
    counts = est.exact_counts + est.bound_counts
    assert est.full_queries + counts + est.reused_counts == queries
    assert est.full_queries < 0.05 * queries
    assert counts < on_k_share * queries
    if algo.tracker.xi == 0.0:
        assert est.deferred_updates == est.replayed_updates == 0
    else:
        assert est.deferred_updates > 0.9 * queries


# -- deferred tracker updates against the eager rule --------------------------------
#
# The oracle is the same Estimator with the count from B, (e), declined: every
# count on K reads err, so no tracker update is ever deferred.


@contextmanager
def eager_tracker():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_count_by_bound", lambda *args: None)
        yield


def eager_step(est, sample):
    with eager_tracker():
        return est.step(sample)


def assert_same_tracker(fast, oracle):
    # est.tracker replays the deferred updates
    assert _bits(fast.tracker.err) == _bits(oracle.tracker.err)
    assert fast.tracker.kappa == oracle.tracker.kappa


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32]),
    k=st.integers(1, 3),
    variant=st.sampled_from(["hard", "hard_l0"]),
    xi_ref=st.sampled_from([0.05, 0.5, 2.0]),
    lam=st.sampled_from([0.2, 0.7, 0.95]),
    near=st.floats(0.8, 1.2),  # q* near a coefficient magnitude: counts read err
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    read_every=st.sampled_from([1, 7, 50]),  # how long the pending list grows
)
# xi = 0: no tracker update, and every count is decided from |w[K]|
@example(seed=5, n=16, k=2, variant="hard", xi_ref=0.0, lam=0.7, near=0.9, noise=0.01,
         read_every=7)
def test_deferred_tracker_updates_match_the_eager_rule(
    seed, n, k, variant, xi_ref, lam, near, noise, read_every
):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)
    q_star = near * float(np.abs(w_true[np.flatnonzero(w_true)]).min())
    rho = 0.02 / n if variant == "hard_l0" else 0.0
    cfg = EstimatorConfig(variant, mu=0.5 / n, rho=rho, beta=0.5, burn_in=n)
    params = TrackerParams(lam=lam, xi=xi_ref / n, q_star=q_star)
    fast, oracle = Estimator(cfg, n, params), Estimator(cfg, n, params)
    for step in range(300):
        x = rows[rng.integers(n)]
        y = np.vdot(w_true, x) + noise * rng.standard_normal()
        draw = rng.random()
        if draw > 0.995:
            x = x.copy()  # a non-unit row: an eager update, and B unknown
        elif draw > 0.99:  # a reassigned iterate: a full query
            nudge = 1e-3 * rng.standard_normal(n)
            fast.state.w = fast.state.w + nudge
            oracle.state.w = oracle.state.w + nudge
        elif draw > 0.985:  # an assigned err: B unknown, a full query
            j, shift = rng.integers(n), 0.1 * q_star
            for est in (fast, oracle):
                err = est.tracker.err.copy()
                err[j] += shift
                est.tracker.err = err
        sample = MeasurementSample(x, y)
        assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
        assert fast._tracker.kappa == oracle._tracker.kappa  # advanced even when deferred
        if step % read_every == 0:
            assert_same_tracker(fast, oracle)
    assert_same_tracker(fast, oracle)


def _deferring_pair(n=16):
    """A hard estimator whose tracker updates are being deferred, its oracle,
    and the rows.  Three entries of w are 1, far above q*, so the count on K
    is decided from |w[K]|; mu is so small that even |e| near the largest
    float keeps |c| below them, and the support path certified."""
    cfg = EstimatorConfig("hard", mu=1e-320, burn_in=1)
    params = TrackerParams(lam=0.9, xi=0.5 / n, q_star=0.05)
    fast, oracle = Estimator(cfg, n, params), Estimator(cfg, n, params)
    rows = fourier_rows(n)
    w = np.zeros(n, dtype=complex)
    w[:3] = 1.0
    for t in range(6):
        if t == 1:
            fast.state.w, oracle.state.w = w.copy(), w.copy()
        sample = MeasurementSample(rows[t], np.vdot(fast.state.w, rows[t]) + 0.01)
        assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
    assert fast._pending and fast.bound_counts > 0
    return fast, oracle, rows


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_an_update_that_overflows_runs_at_its_own_step():
    # |e| near the largest float: b = e* x overflows, and the warning and the
    # infinite err entries show inside that step, not at a later read of err
    fast, oracle, rows = _deferring_pair()
    sample = MeasurementSample(rows[2], complex(1.5e308, -1.5e308))
    with pytest.warns(RuntimeWarning, match="overflow"):
        e = fast.step(sample)
    assert fast.last_s == 3  # the support step, not the dense rule
    assert not fast._pending
    assert not np.isfinite(fast._tracker.err).all()
    assert_bitwise_equal(fast, oracle, e, eager_step(oracle, sample))
    assert_same_tracker(fast, oracle)


def test_a_copied_row_is_updated_at_its_own_step():
    # a copied row is writable; its update runs at its step, so a later write
    # to it cannot reach err through a replay
    fast, oracle, rows = _deferring_pair()
    x = rows[3].copy()
    sample = MeasurementSample(x, np.vdot(fast.state.w, x) + 0.01)
    assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
    assert not fast._pending
    x[:] = 7.0
    assert_same_tracker(fast, oracle)
    # B is unknown after a copied row: the next budget is a full query, which
    # turns deferral off, so that step's update runs eagerly too
    full = fast.full_queries
    sample = MeasurementSample(rows[4], np.vdot(fast.state.w, rows[4]) + 0.01)
    assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
    assert fast.full_queries == full + 1
    assert not fast._pending
    assert_same_tracker(fast, oracle)


def test_an_err_assigned_through_a_held_reference_drops_the_deferred_updates():
    # the eager rule applied the deferred updates to the err that the caller
    # replaced, so the new err starts without them
    fast, oracle, rows = _deferring_pair()
    held = fast.tracker, oracle.tracker
    for t in (4, 5):  # deferred, and not applied to the held state
        sample = MeasurementSample(rows[t], np.vdot(fast.state.w, rows[t]) + 0.01)
        assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
    assert fast._pending
    err = np.full(rows.shape[0], 0.001 + 0.002j)
    for tr in held:
        tr.err = err.copy()
    sample = MeasurementSample(rows[6], np.vdot(fast.state.w, rows[6]) + 0.01)
    assert_bitwise_equal(fast, oracle, fast.step(sample), eager_step(oracle, sample))
    assert_same_tracker(fast, oracle)


@pytest.mark.parametrize("in_place", [False, True], ids=["assigned", "in-place"])
def test_a_changed_tracker_err_gives_the_full_query_budgets(in_place):
    # exp2 at N = 64, HARD-EST, trial 0, with err[K] + 3 after step 600, where a
    # count on K is being reused.  Measured: the full query then gives budgets
    # 23, 20, 18, 16, 15, 14 at steps 601-606, where an ignored change keeps 28.
    # An assigned err drops the count and B; an in-place write raises.
    spec = get_experiment("exp2", trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == "HARD-EST")
    fast, oracle = (Estimator(algo.estimator, 64, algo.tracker) for _ in range(2))
    phase = harness._build_phases(spec, 0)[0]
    windows = itertools.repeat(phase.z, phase.sensing.n_windows)
    budgets = []
    for sample in make_stream(phase.sensing, windows, phase.sigma):
        e_fast, e_oracle = fast.step(sample), full_query_step(oracle, sample)
        assert_bitwise_equal(fast, oracle, e_fast, e_oracle)
        budgets.append(fast.last_s)
        if fast.state.n != 600:
            continue
        kept = fast.sparse_iterate()[0]
        for est in (fast, oracle):
            err = est.tracker.err
            if in_place:
                with pytest.raises(ValueError, match="read-only"):
                    err[kept] += 3
            else:
                err = err.copy()
                err[kept] += 3
                est.tracker.err = err
    assert budgets[600:606] == ([28] * 6 if in_place else [23, 20, 18, 16, 15, 14])


def test_the_tracker_err_stays_read_only_when_xi_is_zero():
    # exp4's HARD-EST-SIMPLE never updates its tracker (xi = 0); its budget
    # queries take an assigned err over all the same
    spec = get_experiment("exp4-tracking", trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == "HARD-EST-SIMPLE")
    assert algo.tracker.xi == 0.0
    est = Estimator(algo.estimator, 64, algo.tracker)
    phase = harness._build_phases(spec, 0)[0]
    windows = itertools.repeat(phase.z, phase.sensing.n_windows)
    stream = make_stream(phase.sensing, windows, phase.sigma)
    for sample in itertools.islice(stream, 200):
        est.step(sample)
    for _ in range(2):
        with pytest.raises(ValueError, match="read-only"):
            est.tracker.err[0] = 1.0
        est.tracker.err = est.tracker.err.copy()
        est.step(next(stream))
    assert est.last_s is not None


# -- selective path against the exact cut ----------------------------------------------
#
# The oracle is the same Estimator with the selective certificate declined, so
# every sza step runs keep_mask on its iterate.


@contextmanager
def exact_top_cut():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators.Record, "set_kept", lambda *args: False)
        yield


def _step_with(context, est, sample):
    with context():
        return est.step(sample)


def _ends_alike(fast_step, oracle_step):
    """Run both steps: (True, None, None) when both raised the same
    ValueError, (False, e_fast, e_oracle) when neither raised; a step that
    raises alone fails the test."""
    try:
        e_fast = fast_step()
    except ValueError as err:
        with pytest.raises(ValueError) as oracle_err:
            oracle_step()
        assert str(oracle_err.value) == str(err)
        return True, None, None
    return False, e_fast, oracle_step()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32]),
    k=st.integers(1, 4),
    s_shift=st.integers(-2, 3),  # s below, at and above the true sparsity
    burn_in=st.integers(0, 30),
    mu_ref=st.floats(0.1, 1.0),
    rho_ref=st.sampled_from([0.0, 0.02, 0.5, 3.0]),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    equal=st.booleans(),  # equal true magnitudes: near-ties at the s-th entry
)
def test_selective_path_matches_the_exact_cut(
    seed, n, k, s_shift, burn_in, mu_ref, rho_ref, noise, equal
):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = _sparse_truth(rng, n, k)
    if equal:
        w_true[w_true != 0] = 0.5 + 0.5j
    s = min(max(k + s_shift, 1), n)
    cfg = EstimatorConfig("sza", mu=mu_ref / n, rho=rho_ref / n, s=s, burn_in=burn_in)
    fast, oracle = Estimator(cfg, n), Estimator(cfg, n)
    for _ in range(200):
        x = rows[rng.integers(n)]
        draw = rng.random()
        if draw < 0.05:
            y = np.vdot(fast.state.w, x)  # e exactly 0: only rho moves w
        else:
            y = np.vdot(w_true, x) + noise * rng.standard_normal()
        sample = MeasurementSample(x, y)
        if 0.95 < draw <= 0.97:  # a non-unit row, up to 20 times a unit one
            sample = MeasurementSample(x * rng.uniform(1.0, 20.0), y)
        if 0.97 < draw <= 0.985:  # reassigned, with an exact tie at the s-th magnitude
            w = fast.state.w.copy()
            order = np.argsort(np.abs(w))
            w[order[-1]] = w[order[0]] = abs(w[order[-s]])
            fast.state.w, oracle.state.w = w, w.copy()
        if 0.985 < draw <= 0.99:  # a NaN assigned: same error, same step
            j = rng.integers(n)
            fast.state.w = _poisoned_copy(fast.state.w, j, math.nan)
            oracle.state.w = _poisoned_copy(oracle.state.w, j, math.nan)
        with np.errstate(all="ignore"):
            ended, e_fast, e_oracle = _ends_alike(
                lambda: fast.step(sample), lambda: _step_with(exact_top_cut, oracle, sample)
            )
        if ended:
            return
        assert_bitwise_equal(fast, oracle, e_fast, e_oracle)



# -- the support record against the certificate of every step ---------------------------
#
# The oracle is the same Estimator with the record declined, so _certified runs
# on every support-path step.  Both must take the same path: the same w, e and
# budget, and the same top-s cuts (the s of every hard_threshold call).


@contextmanager
def no_record():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators.Record, "support_kept", lambda *args: False)
        yield


@contextmanager
def cuts_logged():
    """A list that receives the s of every top-s cut the estimators make."""
    calls = []
    cut = estimators.hard_threshold

    def logged(v, s):
        calls.append(s)
        return cut(v, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "hard_threshold", logged)
        yield calls


def _cuts_of(calls, step):
    """The cuts ``step`` makes, and its result or raised ValueError."""
    start = len(calls)
    try:
        out = step()
    except ValueError as err:
        out = err
    return calls[start:], out


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32]),
    k=st.integers(1, 3),
    extra=st.integers(0, 4),  # spare slots: entries on K within a few |c| of the bound
    variant=st.sampled_from(["hard", "hard_l0"]),
    tracked=st.booleans(),  # the tracker's budget changes between steps
    burn_in=st.integers(0, 40),
    mu_ref=st.floats(0.1, 1.0),
    rho_ref=st.sampled_from([0.02, 0.5]),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    # share of steps with e = 0 after step 100, where only hard_l0's rho moves w
    exact=st.sampled_from([0.05, 0.5, 0.9]),
    # squares near and below the normal range: the margin's absolute terms
    scale=st.sampled_from([1.0, 1e-150, 1e-153, 1e-155, 1e-160]),
)
# entries near sqrt(tiny): a margin without its absolute terms certifies wrongly
@example(seed=0, n=8, k=1, extra=0, variant="hard", tracked=False, burn_in=0, mu_ref=1.0,
         rho_ref=0.02, noise=0.3, exact=0.05, scale=1e-153)
# the l0 shrink moves K between records: the drift needs rho
@example(seed=0, n=8, k=1, extra=1, variant="hard_l0", tracked=False, burn_in=0, mu_ref=1.0,
         rho_ref=0.02, noise=0.0, exact=0.05, scale=1e-150)
def test_support_record_takes_the_certificate_path(
    seed, n, k, extra, variant, tracked, burn_in, mu_ref, rho_ref, noise, exact, scale
):
    rng = np.random.default_rng(seed)
    rows = fourier_rows(n)
    w_true = scale * _sparse_truth(rng, n, k)
    rho = rho_ref * scale / n if variant == "hard_l0" else 0.0
    cfg = EstimatorConfig(
        variant, mu=mu_ref / n, rho=rho, beta=0.5 / scale,
        s=None if tracked else min(k + extra, n), burn_in=burn_in,
    )
    params = TrackerParams(lam=0.9, xi=0.5, q_star=0.05 * scale) if tracked else None
    fast, oracle = Estimator(cfg, n, params), Estimator(cfg, n, params)
    for step in range(200):
        x = rows[rng.integers(n)]
        draw = rng.random()
        if rng.random() < (exact if step >= 100 else 0.05):
            y = np.vdot(fast.state.w, x)  # e exactly 0
        else:
            y = np.vdot(w_true, x) + noise * scale * rng.standard_normal()
        sample = MeasurementSample(x, y)
        if 0.95 < draw <= 0.96:  # a non-unit row: the dense rule
            sample = MeasurementSample(x.copy(), y)
        if 0.96 < draw <= 0.98:  # a reassigned iterate: a new cut
            nudge = 1e-3 * scale * rng.standard_normal(n)
            fast.state.w = fast.state.w + nudge
            oracle.state.w = oracle.state.w + nudge
        if 0.995 < draw:  # a NaN assigned: same error, same step
            j = rng.integers(n)
            fast.state.w = _poisoned_copy(fast.state.w, j, math.nan)
            oracle.state.w = _poisoned_copy(oracle.state.w, j, math.nan)
        with np.errstate(all="ignore"), cuts_logged() as calls:
            cuts_fast, e_fast = _cuts_of(calls, lambda: fast.step(sample))
            cuts_oracle, e_oracle = _cuts_of(calls, lambda: _step_with(no_record, oracle, sample))
        assert cuts_fast == cuts_oracle
        if isinstance(e_fast, ValueError):
            assert str(e_fast) == str(e_oracle)
            return
        assert_bitwise_equal(fast, oracle, e_fast, e_oracle)


def test_support_record_never_certifies_a_square_that_overflows():
    # K's entries sit just below sqrt(largest float): a step that moves one past
    # it leaves a finite v whose square overflows, which _certified refuses
    n = 4
    cfg = EstimatorConfig("hard", mu=0.25, s=2)
    fast, oracle = Estimator(cfg, n), Estimator(cfg, n)
    w = np.array([1.30e154, 1.20e154, 0.0, 0.0], dtype=complex)
    x = fourier_rows(n)[1]
    for est in (fast, oracle):
        est.state.w = w.copy()
    for y_off in (0.0, 0.0, 4.0e153):  # a dense cut, a record, then the overflow
        with np.errstate(over="ignore"), cuts_logged() as calls:
            cuts_fast, e_fast = _cuts_of(
                calls, lambda: fast.step(MeasurementSample(x, np.vdot(fast.state.w, x) + y_off))
            )
            cuts_oracle, e_oracle = _cuts_of(
                calls,
                lambda: _step_with(
                    no_record, oracle,
                    MeasurementSample(x, np.vdot(oracle.state.w, x) + y_off),
                ),
            )
        assert cuts_fast == cuts_oracle
        assert_bitwise_equal(fast, oracle, e_fast, e_oracle)
    assert len(cuts_fast) == 1  # the last step went through the dense cut
    assert float(np.max(np.abs(fast.state.w))) > math.sqrt(np.finfo(float).max)


def test_exp2_support_path_mostly_skips_the_certificate(monkeypatch):
    # Measured at N = 64, trial 0: of 1273 support-path steps each, _certified
    # ran on 50 (HARD-20), 56 (HARD-40), 22 (HARD-80) and 2 (HARD-EST); the
    # record answered the rest in O(1).  Declining the record runs it on all.
    spec = get_experiment("exp2", trials=1, n=64)
    built = _trial_estimator(monkeypatch)
    for algo in spec.algorithms:
        if algo.estimator.variant != "hard":
            continue
        run_trial(spec, algo, 0)
        est = built()
        support = est.state.n - est.general_steps  # support steps that finished
        assert support > 0.9 * (spec.sensing.total_samples - algo.estimator.burn_in)
        assert est.certificate_runs < 0.15 * support, algo.label


@pytest.mark.parametrize(
    "name, label, share",
    [
        ("exp2", "HARD-20", 0.99),
        ("exp2", "HARD-EST", 0.99),
        # at N = 64 exp4's HARD-EST has xi = 20/64, so entries off K pass q*
        # and most budgets differ from |K| (see the budget test above)
        ("exp4-tracking", "HARD-EST", 0.2),
        ("exp4-tracking", "HARD-EST-SIMPLE", 0.97),
    ],
)
def test_every_active_step_but_the_dense_cuts_finishes_on_the_support_step(
    monkeypatch, name, label, share
):
    # Measured at N = 64, trial 0, of 1274 active steps (3874 for exp4): 1273
    # support steps for each exp2 label, and 871 (HARD-EST) and 3795
    # (HARD-EST-SIMPLE) for exp4; every other active step was a dense cut
    spec = get_experiment(name, trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == label)
    built = _trial_estimator(monkeypatch)
    cuts = _count_cuts(monkeypatch)
    steps = run_trial(spec, algo, 0).rmse_lin_trajectory.size
    active = steps - algo.estimator.burn_in
    support = steps - built().general_steps
    assert support == active - len(cuts)
    assert support > share * active


def test_exp3_certifies_sza_and_logs_tracker_updates(monkeypatch):
    # Measured at N = 64, seed 303, trial 0 (1300 steps): SZA ran 87 exact cuts
    spec = get_experiment("exp3", trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == "SZA")
    calls = []
    penalty = estimators.selective_penalty

    def counted(*args):
        calls.append(args)
        return penalty(*args)

    monkeypatch.setattr(estimators, "selective_penalty", counted)
    run_trial(spec, algo, 0)
    assert len(calls) < 0.15 * spec.sensing.total_samples


# -- 0-d operands, shapes and the certificate's two ends ----------------------


def _certified_by_sort(v, c):
    """_certified with both ends of m2 taken from one sort, for every |K|."""
    m2 = v.real * v.real + v.imag * v.imag
    m2.sort()
    c2 = c.real * c.real + c.imag * c.imag
    if m2[0] > c2 * (1.0 + estimators._DELTA) + estimators._TINY and m2[-1] < math.inf:
        return math.sqrt(m2[0]), math.sqrt(m2[-1]) + estimators._ROOT_TINY
    return None


_SIZES = st.integers(min_value=1, max_value=360)
_PLACED = st.lists(st.tuples(st.integers(min_value=0), _any_float, _any_float), max_size=4)
_SCALES = st.sampled_from([1e-170, 1e-3, 1.0, 1e150, 1e154, 1e200])
_C_VALUES = st.sampled_from([0j, 1e-3 + 1e-3j, 2.3e-162, 0.5, complex(math.nan, 0.0),
                             complex(0.0, math.inf), 1e154j])


@settings(max_examples=200, deadline=None)
@given(size=_SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1), placed=_PLACED,
       scale=_SCALES, c=_C_VALUES)
@example(size=161, seed=0, placed=[(10**6, math.nan, 0.0)], scale=1.0, c=0j)
@example(size=161, seed=1, placed=[(3, math.inf, 1.0)], scale=1.0, c=0j)
@example(size=161, seed=2, placed=[], scale=1e155, c=0j)
@example(size=160, seed=3, placed=[(0, 1e-3, 0.0)], scale=1.0, c=1e-3 + 1e-3j)
def test_certified_ends_match_the_sort_form(size, seed, placed, scale, c):
    # the ends come from argmin and argmax; (lo, top) and every refusal (a
    # NaN, an inf, a square that overflows, an entry within reach of |c|)
    # are the sort form's
    rng = np.random.default_rng(seed)
    v = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    for at, re, im in placed:
        v[at % size] = complex(re, im)
    with np.errstate(all="ignore"):
        assert estimators._certified(v, c) == _certified_by_sort(v, c)


def _views(n):
    rows = fourier_rows(n)
    return {"short": rows[0, : n - 1], "two-rows": rows[:2], "other-table": fourier_rows(2 * n)[1]}


@pytest.mark.parametrize("view", ["short", "two-rows", "other-table"])
@pytest.mark.parametrize("path", ["support", "general"])
def test_a_wrong_shaped_table_view_names_its_shape(monkeypatch, path, view):
    # the support step checks the row's shape against the (N,) it holds, the
    # general body through prediction_error; the first two views are views of
    # the estimator's own table, so on the support path they reach the
    # support step's check
    n = 16
    rows = fourier_rows(n)
    supported = []
    support_step = Estimator._support_step

    def counted(self, *args):
        supported.append(args[0].x)
        return support_step(self, *args)

    monkeypatch.setattr(Estimator, "_support_step", counted)
    burn_in = 0 if path == "support" else 10**6
    est = Estimator(EstimatorConfig("hard", mu=0.5 / n, s=3, burn_in=burn_in), n)
    est.state.w = np.random.default_rng(2).standard_normal(n) * (1 + 1j)
    for t in (1, 5, 9):
        est.step(MeasurementSample(rows[t], 0.25))
    assert bool(supported) == (path == "support")
    bad = _views(n)[view]
    supported.clear()
    with pytest.raises(ValueError, match=re.escape(f"regressor has shape {bad.shape}, "
                                                   f"expected ({n},)")):
        est.step(MeasurementSample(bad, 0.25))
    assert bool(supported) == (path == "support" and view != "other-table")


_OPERANDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, math.inf,
                                       -math.inf, math.nan]), st.floats())


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_OPERANDS, min_size=2, max_size=12), re=_OPERANDS, im=_OPERANDS,
       real=st.booleans())
def test_a_zero_d_operand_gives_the_python_scalars_bits(parts, re, im, real):
    # what a step passes: a Python float or complex against a complex128
    # array, and a float against a float64 one, each as a 0-d array of the
    # dtype numpy gives it there, assigned into a preallocated array
    scalar = re if real else complex(re, im)
    zero_d = np.empty((), dtype=complex)
    zero_d[()] = scalar
    arrays = [np.array(parts[: len(parts) // 2 * 2]).view(complex)]
    operands = [zero_d]
    if real:
        arrays.append(np.array(parts))
        real_d = np.empty(())
        real_d[()] = scalar
        operands.append(real_d)
    with np.errstate(all="ignore"):
        for a, d in zip(arrays, operands):
            for op in (np.multiply, np.add, np.subtract):
                assert _bits(op(a, d)) == _bits(op(a, scalar)), (op, a, scalar)
                assert _bits(op(d, a)) == _bits(op(scalar, a)), (op, a, scalar)
                want, got = a.copy(), a.copy()
                op(want, scalar, out=want)
                op(got, d, out=got)
                assert _bits(got) == _bits(want), (op, a, scalar)


def _caller_rows(n, dtype, count, seed):
    """Rows that are not views of the table, in the dtype a caller chose."""
    rng = np.random.default_rng(seed)
    table = fourier_rows(n)
    if np.dtype(dtype).kind == "f":
        return [np.sign(table[t].real + 0.5).astype(dtype) for t in rng.integers(n, size=count)]
    return [table[t].astype(dtype) for t in rng.integers(n, size=count)]


@pytest.mark.parametrize("dtype", [np.complex64, np.float32])
@pytest.mark.parametrize("variant", ["lms", "za", "rza", "l0", "hard"])
def test_a_row_of_a_callers_dtype_gives_its_complex128_copys_bits(variant, dtype):
    # the row meets complex128 operands (the iterate, c and e*), so numpy
    # widens it exactly: the step, and the tracked hard estimator's b = e* x,
    # see its complex128 copy
    n = 8
    params = TrackerParams(lam=0.9, xi=1.0, q_star=0.05) if variant == "hard" else None
    cfg = EstimatorConfig(variant, mu=0.5 / n, rho=1e-3, beta=2.0, epsilon=3.0)
    caller, copy = Estimator(cfg, n, params), Estimator(cfg, n, params)
    rng = np.random.default_rng(3)
    for x in _caller_rows(n, dtype, 40, seed=4):
        y = float(rng.standard_normal())
        e = caller.step(MeasurementSample(x, y))
        assert_bitwise_equal(caller, copy, e, copy.step(MeasurementSample(x.astype(complex), y)))
        if params is not None:
            assert _bits(caller.tracker.err) == _bits(copy.tracker.err)
    assert caller.state.w.dtype == complex


_OTHER_DTYPES = [np.dtype(np.complex64), np.dtype(np.float64), np.dtype(">c16")]


def _as(w, dtype):
    """w in dtype, its real part where dtype is real."""
    return (w if dtype.kind == "c" else w.real).astype(dtype)


@pytest.mark.parametrize("variant", ["za", "rza", "l0", "hard", "hard_l0"])
def test_an_assigned_iterate_of_another_dtype_raises_at_the_next_step(variant):
    # complex128 is the iterate's one dtype: a dense variant meets the
    # assigned array at prediction_error, and so do hard and hard_l0, whose
    # support record the assignment drops
    n = 16
    rows = fourier_rows(n)
    s = 3 if variant in estimators.THRESHOLDED else None
    cfg = EstimatorConfig(variant, mu=0.5 / n, rho=1e-2, s=s)
    for dtype in _OTHER_DTYPES:
        est = Estimator(cfg, n)
        for t in range(4):
            est.step(MeasurementSample(rows[t], 0.5))
        assert (est.sparse_iterate() is not None) == (variant in estimators.PROJECTED)
        est.state.w = _as(est.state.w, dtype)
        with pytest.raises(ValueError, match=re.escape(
                f"state.w has dtype {dtype}, expected complex128")):
            est.step(MeasurementSample(rows[5], 0.5))
        assert est.state.n == 4


def test_an_assigned_err_of_another_dtype_raises_at_the_next_step():
    n = 16
    params = TrackerParams(lam=0.95, xi=1.0, q_star=0.05)
    est = Estimator(EstimatorConfig("hard", mu=0.5 / n), n, params)
    rows = fourier_rows(n)
    for t in range(4):
        est.step(MeasurementSample(rows[t], 0.5))
    assert est.sparse_iterate() is not None
    est.tracker.err = est.tracker.err.astype(np.complex64)
    with pytest.raises(ValueError, match=re.escape(
            "TrackerState.err has dtype complex64, expected complex128")):
        est.step(MeasurementSample(rows[5], 0.5))
    assert est.state.n == 4
