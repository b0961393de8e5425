"""The estimators on bins 0..N/2 against the dense rule over all N bins.

The tolerance was fixed before the half representation was measured: at every
step the mirrored half iterate is within 8 rho + 1e-9 max|w*| of the full
rule's N entries.  The full rule's RZA, L0 and SZA iterates drift from
conjugate symmetry by up to about rho, because the sign penalty amplifies a
perpendicular perturbation of an entry below rho / 2 in magnitude; 8 rho is a
few of those chatter amplitudes.  A top-s cut of the full rule may split a
conjugate pair, which the half representation cannot do; steps are compared
until the full rule's first such cut.
"""

import itertools

import numpy as np
import pytest

from full_spectrum import FullSpectrum, full_row, mirrored, split_pair
from sparselms import estimators, harness
from sparselms.estimators import Estimator, EstimatorConfig, EstimatorState, prediction_error
from sparselms.experiments import get_experiment
from sparselms.sensing import (MeasurementSample, fourier_rows, full_count, half_size, make_stream,
                               regressor_row)


def _lineup(n):
    """Every variant, as the registry configures it at N."""
    return [a for name in ("exp2", "exp3") for a in get_experiment(name, trials=1, n=n).algorithms]


@pytest.mark.parametrize("n", [16, 64, 63])
def test_every_variant_follows_the_full_spectrum_rule(n):
    spec = get_experiment("exp2", trials=1, n=n)
    phase = harness._build_phases(spec, 0)[0]
    compared = {}
    for algo in _lineup(n):
        cfg = algo.estimator
        est = Estimator(cfg, n, algo.tracker)
        ref = FullSpectrum(cfg, n, algo.tracker)
        tol = 8.0 * cfg.rho + 1e-9 * np.abs(phase.w_true).max()
        stream = make_stream(phase.sensing, itertools.repeat(phase.z), phase.sigma)
        for i, sample in enumerate(stream):
            est.step(sample)
            ref.step(full_row(sample.x), sample.y)
            if split_pair(ref.cut):
                break
            dev = np.abs(mirrored(est.state.w, n) - ref.w).max()
            assert dev <= tol, (algo.label, i, dev, tol)
        compared[algo.label] = i
    print(n, compared)
    # the variants without a cut ran the whole stream, the others their burn-in
    total = spec.sensing.total_samples
    for algo in _lineup(n):
        cut = algo.estimator.variant in ("sza", "hard", "hard_l0")
        assert compared[algo.label] >= (algo.estimator.burn_in if cut else total - 1), algo.label


@pytest.mark.parametrize("n", [16, 63, 64])
def test_the_r_mse_is_the_full_spectrums(n):
    rng = np.random.default_rng(n)
    h = half_size(n)
    w_true, w = (rng.standard_normal(h) + 1j * rng.standard_normal(h) for _ in range(2))
    for v in (w_true, w):
        v[0] = v[0].real  # bin 0, and N/2 for even N, hold real values
        if n % 2 == 0:
            v[-1] = v[-1].real
    full_true, full = mirrored(w_true, n), mirrored(w, n)
    want = np.sum(np.abs(full - full_true) ** 2) / np.sum(np.abs(full_true) ** 2)
    assert harness.rmse(w_true, w, n) == pytest.approx(want, rel=1e-13)


def test_every_final_support_of_exp2_is_closed_under_mirroring():
    # the spec `sparselms run exp2 --scale 64 --trials 2` builds
    result = harness.run_experiment(get_experiment("exp2", trials=2, n=64))
    for label, recs in result.records.items():
        for rec in recs:
            kept = rec.final_support
            assert kept == frozenset((64 - k) % 64 for k in kept), (label, sorted(kept))


def test_a_row_of_length_n_raises_the_shape_error():
    n = 16
    x = regressor_row(n, 3)
    for cfg in (EstimatorConfig("lms", mu=0.05), EstimatorConfig("hard", mu=0.05, s=4)):
        est = Estimator(cfg, n)
        with pytest.raises(ValueError, match=r"regressor has shape \(16,\), expected \(9,\)"):
            est.step(MeasurementSample(x, 0.5))
    with pytest.raises(ValueError, match=r"regressor has shape \(16,\), expected \(9,\)"):
        prediction_error(EstimatorState.zeros(9), MeasurementSample(x, 0.5), n)


def test_a_certified_support_step_rejects_a_row_of_length_n():
    n = 16
    est = Estimator(EstimatorConfig("hard", mu=0.05, s=2), n)
    rows = fourier_rows(n)
    for t in range(40):  # a settled support: the record is on state.w
        est.step(MeasurementSample(rows[t % n], float(np.sin(2 * np.pi * 3 * t / n))))
    assert est.sparse_iterate() is not None
    with pytest.raises(ValueError, match=r"regressor has shape \(16,\), expected \(9,\)"):
        est.step(MeasurementSample(regressor_row(n, 5), 0.5))


@pytest.mark.parametrize("y", [1j, complex(0.5, -1e-300), complex(0.0, float("nan")),
                               np.complex128(complex(2.0, 3.0))])
def test_a_complex_y_with_an_imaginary_part_raises_naming_y(y):
    est = Estimator(EstimatorConfig("lms", mu=0.05), 8)
    x = fourier_rows(8)[1, :5]
    with pytest.raises(ValueError, match=r"y has a nonzero imaginary part"):
        est.step(MeasurementSample(x, y))
    assert est.state.n == 0 and not est.state.w.any()


def _cut(w, s, n):
    return estimators._top_s(np.asarray(w, dtype=complex), s, n)


def test_the_top_s_cut_keeps_pairs_whole():
    # n = 8: bins 0 and 4 count once, bins 1-3 twice
    w = [0.1, 0.9, 0.5, 0.3, 0.2]
    assert _cut(w, 2, 8).nonzero()[0].tolist() == [1]  # one pair
    assert _cut(w, 3, 8).nonzero()[0].tolist() == [1, 2]  # the 3rd is bin 2's first copy
    assert _cut(w, 4, 8).nonzero()[0].tolist() == [1, 2]
    w = [0.7, 0.9, 0.5, 0.3, 0.2]
    assert _cut(w, 3, 8).nonzero()[0].tolist() == [0, 1]  # bin 0 makes an odd count
    for s in range(1, 9):
        kept = _cut(w, s, 8) != 0
        assert full_count(8, kept) >= s
        assert full_count(8, kept) <= s + 1


@pytest.mark.parametrize("n, want", [(8, [1, 2, 2, 2, 1]), (7, [1, 2, 2, 2]), (2, [1, 1]),
                                     (1, [1])])
def test_full_count_weighs_each_stored_bin(n, want):
    h = half_size(n)
    for k in range(h):
        flags = np.zeros(h, dtype=bool)
        flags[k] = True
        assert full_count(n, flags) == want[k]
        kept = np.array([k])
        assert full_count(n, np.ones(1, dtype=bool), kept) == want[k]
    assert full_count(n, np.ones(h, dtype=bool)) == n
