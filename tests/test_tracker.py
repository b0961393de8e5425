import re

import numpy as np
import pytest

from sparselms.estimators import EstimatorState, prediction_error
from sparselms.sensing import RepeatedPass, SensingConfig, fourier_rows, make_stream
from sparselms.signals import SignalSpec, multisine, true_spectrum
from sparselms.tracker import (
    TrackerParams,
    TrackerState,
    corrected_estimate,
    estimate_sparsity,
    make_tracker,
    occupancy_mask,
    tracker_update,
)


def test_params_validation():
    with pytest.raises(ValueError):
        TrackerParams(lam=0.0)
    with pytest.raises(ValueError):
        TrackerParams(lam=1.5)
    with pytest.raises(ValueError):
        TrackerParams(xi=-1.0)
    with pytest.raises(ValueError):
        TrackerParams(q_star=0.0)
    # top-s is the only projection: no field selects another
    with pytest.raises(TypeError):
        TrackerParams(use_support=True)


def test_first_update_forced_values():
    st = make_tracker(TrackerParams(), 4)  # bins 0..2
    b = np.array([1.0, -2.0, 0.5j])
    tracker_update(st, b)
    assert st.kappa == 1.0
    np.testing.assert_array_equal(st.err, -b)


def test_unit_forgetting_gives_running_mean():
    st = make_tracker(TrackerParams(lam=1.0), 2)
    rng = np.random.default_rng(4)
    bs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    for k, b in enumerate(bs, start=1):
        tracker_update(st, b)
        assert st.kappa == k
    np.testing.assert_allclose(st.err, -bs.mean(axis=0), atol=1e-12)


def test_update_matches_its_formula_and_leaves_the_direction_alone():
    st = make_tracker(TrackerParams(lam=0.9), 6)  # bins 0..3
    rng = np.random.default_rng(5)
    err = np.zeros(4, dtype=complex)
    kappa = 0.0
    for _ in range(5):
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b_before = b.copy()
        kappa = 0.9 * kappa + 1.0
        inv = 1.0 / kappa
        err = (1.0 - inv) * err - inv * b
        tracker_update(st, b)
        assert st.err.view(np.uint64).tolist() == err.view(np.uint64).tolist()
        np.testing.assert_array_equal(b, b_before)


def test_kappa_fixed_point():
    st = make_tracker(TrackerParams(lam=0.99), 1)
    prev = 0.0
    for _ in range(2000):
        tracker_update(st, np.zeros(1, dtype=complex))
        assert st.kappa >= prev  # monotone nondecreasing
        assert st.kappa < 1.0 / (1.0 - 0.99)
        prev = st.kappa
    assert st.kappa == pytest.approx(100.0, rel=1e-6)


def test_update_dimension_mismatch():
    st = make_tracker(TrackerParams(), 3)  # bins 0 and 1
    with pytest.raises(ValueError, match=re.escape("direction has shape (3,), expected (2,)")):
        tracker_update(st, np.zeros(3, dtype=complex))
    assert st.kappa == 0.0


def test_an_err_of_another_shape_is_rejected_before_anything_changes():
    # work is sized once, from N; an assigned err of another shape used to
    # advance kappa and scale err before numpy's broadcast error
    st = make_tracker(TrackerParams(), 4)  # bins 0..2
    st.err = np.zeros(4, dtype=complex)
    message = re.escape("TrackerState.err has shape (4,), expected (3,)")
    with pytest.raises(ValueError, match=message):
        tracker_update(st, np.ones(4, dtype=complex))
    assert st.kappa == 0.0 and st.err.tobytes() == np.zeros(4, dtype=complex).tobytes()
    for call in (lambda: corrected_estimate(st, np.ones(4, dtype=complex)),
                 lambda: TrackerState(err=np.ones(4, dtype=complex), kappa=0.0,
                                      params=TrackerParams(), n=4)):
        with pytest.raises(ValueError, match=message):
            call()
    assert st.kappa == 0.0


def test_corrected_estimate_identities():
    st = make_tracker(TrackerParams(xi=0.0), 2)
    st.err = np.array([0.5, -0.5], dtype=complex)
    w = np.array([1.0 + 0j, 2.0])
    np.testing.assert_array_equal(corrected_estimate(st, w), w)  # xi = 0
    st = make_tracker(TrackerParams(xi=5.0), 2)
    np.testing.assert_array_equal(corrected_estimate(st, w), w)  # err = 0


def test_corrected_estimate_hand_example():
    st = make_tracker(TrackerParams(xi=20.0), 2)
    st.err = np.array([0.1, -0.2], dtype=complex)
    w = np.array([1.0 + 0j, 0.0])
    np.testing.assert_allclose(corrected_estimate(st, w), [-1.0, 4.0])


def test_estimate_sparsity_counts():
    # N = 4: bin 0 counts once, bin 1 twice (for bin 3)
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.05), 4)
    assert estimate_sparsity(st, np.array([0.6, 0.04, 0.0], dtype=complex)) == 1
    assert estimate_sparsity(st, np.array([0.6, 0.06, 0.0], dtype=complex)) == 3


def test_estimate_sparsity_clamps_to_one():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.05), 4)
    assert estimate_sparsity(st, np.zeros(3, dtype=complex)) == 1


def test_estimate_sparsity_clamps_to_n():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.0001), 4)
    assert estimate_sparsity(st, np.ones(3, dtype=complex)) == 4


def test_occupancy_mask_matches_count():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.5), 6)
    w = np.array([1.0, 0.4, 0.6, 0.0], dtype=complex)
    mask = occupancy_mask(st, w)
    np.testing.assert_array_equal(mask, [True, False, True, False])


def test_error_direction_is_unbiased_over_full_sweep():
    # fixed estimate, noiseless samples over all positions:
    # -mean(e* x) must equal (estimate - truth) exactly
    # on bins 0..N/2 of a conjugate-symmetric estimate: bins 0 and N/2 real
    n = 24
    spec = SignalSpec(n=n, sines=3, bins=(2, 7, 11))
    z = multisine(spec)
    w_true = true_spectrum(spec)[:13]
    rng = np.random.default_rng(3)
    w_hat = w_true + 0.1 * (rng.standard_normal(13) + 1j * rng.standard_normal(13))
    w_hat[[0, 12]] = w_hat[[0, 12]].real
    st = EstimatorState(w=w_hat.copy())
    cfg = SensingConfig(n=n, m=n, mode=RepeatedPass(1), seed=0)
    acc = np.zeros(13, dtype=complex)
    for sample in make_stream(cfg, [z]):
        e = prediction_error(st, sample, n)
        acc += e * sample.x
    np.testing.assert_allclose(-acc / n, w_hat - w_true, atol=1e-10)


def test_tracker_converges_to_error_under_unit_forgetting():
    # feeding the full-sweep directions with lam=1 reproduces the exact error
    n = 16
    spec = SignalSpec(n=n, sines=2, bins=(3, 5))
    z = multisine(spec)
    w_true = true_spectrum(spec)[:9]
    w_hat = w_true.copy()
    w_hat[1] += 0.25
    st_est = EstimatorState(w=w_hat.copy())
    tracker = make_tracker(TrackerParams(lam=1.0, xi=1.0, q_star=0.05), n)
    cfg = SensingConfig(n=n, m=n, mode=RepeatedPass(1), seed=0)
    for sample in make_stream(cfg, [z]):
        e = prediction_error(st_est, sample, n)
        tracker_update(tracker, e * sample.x)
    np.testing.assert_allclose(tracker.err, w_hat - w_true, atol=1e-10)
    corrected = corrected_estimate(tracker, w_hat)
    np.testing.assert_allclose(corrected, w_true, atol=1e-10)
    assert estimate_sparsity(tracker, w_hat) == 4


@pytest.mark.parametrize("b_dtype", [np.complex128, np.complex64])
def test_an_update_keeps_the_python_floats_bits_for_any_err(b_dtype):
    # tracker_update passes 1 - 1/kappa and 1/kappa as 0-d complex128 arrays,
    # which give the Python floats' bits; a complex64 b is widened exactly, so
    # it gives the bits of its complex128 copy
    rng = np.random.default_rng(9)
    rows = fourier_rows(8)[:, :5]
    start = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    updates = [(rows[rng.integers(8)], complex(*rng.standard_normal(2))) for _ in range(6)]
    tr = make_tracker(TrackerParams(lam=0.9), 8)
    tr.err = start.copy()
    err, kappa = start.copy(), 0.0
    for x, e_conj in updates:
        kappa = 0.9 * kappa + 1.0
        inv = 1.0 / kappa
        narrow = (e_conj * x).astype(b_dtype)
        err *= 1.0 - inv
        err -= np.multiply(narrow.astype(complex), inv)
        tracker_update(tr, narrow)
    assert tr.err.dtype == complex
    assert tr.err.tobytes() == err.tobytes()


@pytest.mark.parametrize("dtype", [np.complex64, np.float64, ">c16"])
def test_an_err_that_is_not_complex128_is_rejected(dtype):
    params = TrackerParams()
    err = np.zeros(3, dtype=dtype)
    message = re.escape(f"TrackerState.err has dtype {np.dtype(dtype)}, expected complex128")
    with pytest.raises(ValueError, match=message):
        TrackerState(err=err, kappa=0.0, params=params, n=4)
    st = make_tracker(params, 4)
    st.err = err
    for call in (lambda: tracker_update(st, np.ones(3, dtype=complex)),
                 lambda: corrected_estimate(st, np.ones(3, dtype=complex))):
        with pytest.raises(ValueError, match=message):
            call()
    assert st.kappa == 0.0
