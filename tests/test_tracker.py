import numpy as np
import pytest

from sparselms.estimators import EstimatorState, prediction_error
from sparselms.sensing import RepeatedPass, SensingConfig, fourier_rows, make_stream
from sparselms.signals import SignalSpec, multisine, true_spectrum
from sparselms.tracker import (
    TrackerParams,
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


def test_first_update_forced_values():
    st = make_tracker(TrackerParams(), 3)
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
    st = make_tracker(TrackerParams(lam=0.9), 4)
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
    st = make_tracker(TrackerParams(), 3)
    with pytest.raises(ValueError):
        tracker_update(st, np.zeros(2, dtype=complex))


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
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.05), 3)
    assert estimate_sparsity(st, np.array([0.6, 0.04, 0.0], dtype=complex)) == 1


def test_estimate_sparsity_clamps_to_one():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.05), 3)
    assert estimate_sparsity(st, np.zeros(3, dtype=complex)) == 1


def test_estimate_sparsity_clamps_to_n():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.0001), 3)
    assert estimate_sparsity(st, np.ones(3, dtype=complex)) == 3


def test_occupancy_mask_matches_count():
    st = make_tracker(TrackerParams(xi=0.0, q_star=0.5), 4)
    w = np.array([1.0, 0.4, 0.6, 0.0], dtype=complex)
    mask = occupancy_mask(st, w)
    np.testing.assert_array_equal(mask, [True, False, True, False])


def test_error_direction_is_unbiased_over_full_sweep():
    # fixed estimate, noiseless samples over all positions:
    # -mean(e* x) must equal (estimate - truth) exactly
    n = 24
    spec = SignalSpec(n=n, sines=3, bins=(2, 7, 11))
    z = multisine(spec)
    w_true = true_spectrum(spec)
    rng = np.random.default_rng(3)
    w_hat = w_true + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    st = EstimatorState(w=w_hat.copy())
    cfg = SensingConfig(n=n, m=n, mode=RepeatedPass(1), seed=0)
    acc = np.zeros(n, dtype=complex)
    for sample in make_stream(cfg, [z]):
        e = prediction_error(st, sample)
        acc += e.conjugate() * sample.x
    np.testing.assert_allclose(-acc / n, w_hat - w_true, atol=1e-10)


def test_tracker_converges_to_error_under_unit_forgetting():
    # feeding the full-sweep directions with lam=1 reproduces the exact error
    n = 16
    spec = SignalSpec(n=n, sines=2, bins=(3, 5))
    z = multisine(spec)
    w_true = true_spectrum(spec)
    w_hat = w_true.copy()
    w_hat[1] += 0.25
    st_est = EstimatorState(w=w_hat.copy())
    tracker = make_tracker(TrackerParams(lam=1.0, xi=1.0, q_star=0.05), n)
    cfg = SensingConfig(n=n, m=n, mode=RepeatedPass(1), seed=0)
    for sample in make_stream(cfg, [z]):
        e = prediction_error(st_est, sample)
        tracker_update(tracker, e.conjugate() * sample.x)
    np.testing.assert_allclose(tracker.err, w_hat - w_true, atol=1e-10)
    corrected = corrected_estimate(tracker, w_hat)
    np.testing.assert_allclose(corrected, w_true, atol=1e-10)
    assert estimate_sparsity(tracker, w_hat) == 4
