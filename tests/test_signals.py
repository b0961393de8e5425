import math
import re

import numpy as np
import pytest

from sparselms.sensing import regressor_row
from sparselms.signals import (
    SignalSpec,
    multisine,
    noise_std,
    random_bins,
    resolve_bins,
    signal_power,
    true_spectrum,
)
from sparselms.sparse_ops import support


def test_single_sine_one_cycle():
    spec = SignalSpec(n=4, sines=1, bins=(1,))
    np.testing.assert_allclose(multisine(spec), [0, 1, 0, -1], atol=1e-12)


def test_bin_zero_rejected():
    with pytest.raises(ValueError):
        SignalSpec(n=8, sines=1, bins=(0,))


def test_nyquist_bin_rejected():
    with pytest.raises(ValueError):
        SignalSpec(n=8, sines=1, bins=(4,))


def test_duplicate_bins_rejected():
    with pytest.raises(ValueError):
        SignalSpec(n=16, sines=2, bins=(3, 3))


def test_mean_and_power():
    spec = SignalSpec(n=1000, sines=2, bins=(17, 101))
    z = multisine(spec)
    assert abs(z.mean()) < 1e-12
    assert abs((z**2).mean() - 1.0) < 1e-3  # k/2 for unit amplitudes


def test_true_spectrum_single_sine():
    spec = SignalSpec(n=4, sines=1, bins=(1,))
    np.testing.assert_allclose(true_spectrum(spec), [0, -0.5j, 0, 0.5j], atol=1e-15)


def test_spectrum_sparsity_and_support():
    spec = SignalSpec(n=256, sines=10, bins=tuple(range(3, 102, 10)))
    w = true_spectrum(spec)
    assert np.count_nonzero(w) == 20
    expected = set(spec.bins) | {256 - m for m in spec.bins}
    assert support(w) == frozenset(expected)


def test_minimum_nonzero_magnitude():
    spec = SignalSpec(n=64, sines=3, bins=(4, 9, 20), amps=(1.0, 2.0, 0.8))
    w = true_spectrum(spec)
    mags = np.abs(w[w != 0])
    assert math.isclose(mags.min(), 0.4)  # min(A)/2 exactly


def test_round_trip_explicit_rows():
    spec = SignalSpec(n=64, sines=2, bins=(5, 20), amps=(1.5, 0.5))
    z = multisine(spec)
    w = true_spectrum(spec)
    for t in range(64):
        assert abs(np.vdot(w, regressor_row(64, t)) - z[t]) < 1e-10


def test_signal_power_analytic():
    spec = SignalSpec(n=128, sines=3, bins=(2, 7, 30), amps=(1.0, 2.0, 3.0))
    assert math.isclose(signal_power(spec), (1 + 4 + 9) / 2)


def test_noise_std_examples():
    assert math.isclose(noise_std(0.5, 10.0) ** 2, 0.05)
    assert math.isclose(noise_std(5.0, 20.0) ** 2, 0.05)
    assert noise_std(0.5, math.inf) == 0.0


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
def test_noise_std_rejects_infinite_noise_and_nan(snr_db):
    # -inf dB is infinite noise, not none
    with pytest.raises(ValueError, match=rf"^snr_db must be a number or inf, got {snr_db}$"):
        noise_std(1.0, snr_db)


@pytest.mark.parametrize("snr_db", [3100.0, -3100.0, -4000.0])
def test_noise_std_rejects_a_finite_snr_whose_std_is_not_finite_and_positive(snr_db):
    # 10^(snr/10) overflows at +3100 dB; at -3100 dB the std overflows to inf,
    # and at -4000 dB 10^(snr/10) underflows to 0
    message = f"snr_db must give a finite, positive noise std at signal power 1.0, got {snr_db}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        noise_std(1.0, snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        SignalSpec(n=64, sines=2, snr_db=snr_db)


def test_noise_std_keeps_a_finite_snr_near_the_limit():
    assert noise_std(1.0, 3000.0) == math.sqrt(1.0 / 10.0 ** 300.0)
    assert SignalSpec(n=64, sines=2, snr_db=3000.0).snr_db == 3000.0


def test_noise_std_rejects_a_nan_power():
    with pytest.raises(ValueError, match="^signal power must be positive$"):
        noise_std(math.nan, 20.0)


def test_random_bins_range_and_distinctness():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bins = random_bins(64, 10, rng)
        assert len(set(bins)) == 10
        assert all(1 <= b <= 31 for b in bins)


def test_resolve_bins_fills_and_preserves():
    spec = SignalSpec(n=64, sines=4)
    resolved = resolve_bins(spec, np.random.default_rng(7))
    assert resolved.bins is not None and len(resolved.bins) == 4
    fixed = SignalSpec(n=64, sines=1, bins=(9,))
    assert resolve_bins(fixed, np.random.default_rng(7)) is fixed


def test_unresolved_bins_raise():
    spec = SignalSpec(n=64, sines=4)
    with pytest.raises(ValueError):
        multisine(spec)
    with pytest.raises(ValueError):
        true_spectrum(spec)


@pytest.mark.parametrize("n, sines", [(3, 1), (8, 4), (64, 32)])
def test_spec_rejects_more_sines_than_bins_without_bins(n, sines):
    with pytest.raises(ValueError, match=f"cannot place {sines} sines"):
        SignalSpec(n=n, sines=sines)
    SignalSpec(n=n + 2, sines=sines)  # one more bin below N/2 fits them
