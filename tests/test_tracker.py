import numpy as np
import pytest

from sparselms import tracker
from sparselms.estimators import EstimatorState, prediction_error
from sparselms.sensing import RepeatedPass, SensingConfig, fourier_rows, make_stream
from sparselms.signals import SignalSpec, multisine, true_spectrum
from sparselms.tracker import (
    TrackerParams,
    corrected_estimate,
    estimate_sparsity,
    log_update,
    make_tracker,
    occupancy_mask,
    support_count,
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


# -- logged updates against eager ones -------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [8, 64, 1000])
def test_logged_updates_replay_to_the_eager_bits(n):
    # a log longer than its first capacity, read over two position sets in
    # turn with no full replay between, then in full
    rows = fourier_rows(n)
    rng = np.random.default_rng(n)
    params = TrackerParams(lam=0.9, xi=0.5, q_star=0.05)
    eager, logged = make_tracker(params, n), make_tracker(params, n)
    sets = [np.sort(rng.choice(n, size=min(5, n), replace=False)) for _ in range(2)]
    w = np.zeros(n, dtype=complex)
    for step in range(600):
        t = int(rng.integers(n))
        e_conj = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.uniform(-6, 3)
        tracker_update(eager, e_conj * rows[t], 2.0)
        log_update(logged, rows, t, e_conj, 2.0)
        assert (logged.kappa, logged.bound) == (eager.kappa, eager.bound)
        if step % 7 == 0:
            kept = sets[(step // 70) % 2]
            assert support_count(logged, w, kept) == support_count(eager, w, kept)
    assert logged._logged == 600  # nothing above replayed it in full
    assert _bits(logged.err) == _bits(eager.err)
    assert logged._logged == 0


def test_a_logged_product_keeps_its_operand_order():
    # the replay forms e* x as the step does; x e* differs in the last bit on
    # some entries, so the order is part of the bit-for-bit claim
    n = 64
    rows = fourier_rows(n)
    rng = np.random.default_rng(7)
    e_conj = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(64)]
    ts = rng.integers(n, size=64)
    eager = np.stack([e * rows[t] for e, t in zip(e_conj, ts)])
    batched = np.multiply(np.array(e_conj)[:, None], rows[ts])
    assert _bits(batched) == _bits(eager)


def test_a_log_at_its_cap_is_replayed(monkeypatch):
    monkeypatch.setattr(tracker, "_LOG_CAP", 8)
    monkeypatch.setattr(tracker, "_LOG_START", 4)
    rows = fourier_rows(16)
    params = TrackerParams(lam=0.9)
    eager, logged = make_tracker(params, 16), make_tracker(params, 16)
    for step in range(20):
        tracker_update(eager, (0.25 + 0.5j) * rows[step % 16], 1.0)
        log_update(logged, rows, step % 16, 0.25 + 0.5j, 1.0)
        assert logged._logged <= 8 and logged._pos.size <= 8
    assert logged._logged == 4  # 8 + 8 replayed at the cap, 4 pending
    assert _bits(logged.err) == _bits(eager.err)


def test_reading_or_assigning_err_ends_the_log():
    n = 16
    rows = fourier_rows(n)
    params = TrackerParams(lam=0.8)
    eager, logged = make_tracker(params, n), make_tracker(params, n)
    for t in (3, 5, 7):
        tracker_update(eager, (0.5 - 0.25j) * rows[t], 1.0)
        log_update(logged, rows, t, 0.5 - 0.25j, 1.0)
    # an eager update after logged ones applies them first
    tracker_update(eager, np.ones(n, dtype=complex))
    tracker_update(logged, np.ones(n, dtype=complex))
    assert _bits(logged.err) == _bits(eager.err)
    log_update(logged, rows, 1, 1.0 + 0j, 1.0)
    logged.err = np.zeros(n, dtype=complex)  # an assigned err drops the pending log
    assert not logged.err.any()


def test_a_log_over_another_table_is_replayed_first():
    rows = fourier_rows(8)
    other = rows.copy()  # the same values in another array
    params = TrackerParams(lam=0.8)
    eager, logged = make_tracker(params, 8), make_tracker(params, 8)
    for table, t in ((rows, 1), (other, 2), (rows, 3)):
        tracker_update(eager, (0.3 + 0.1j) * table[t], 1.0)
        log_update(logged, table, t, 0.3 + 0.1j, 1.0)
    assert logged._table is rows and logged._logged == 1
    assert _bits(logged.err) == _bits(eager.err)
