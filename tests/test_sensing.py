import itertools
import math

import numpy as np
import pytest

from sparselms import sensing
from sparselms.sensing import (
    RepeatedPass,
    SensingConfig,
    StreamExhausted,
    Windowed,
    fourier_rows,
    make_stream,
    regressor_row,
    sample_indices,
)
from sparselms.signals import SignalSpec, multisine, true_spectrum


def test_regressor_row_dc():
    np.testing.assert_allclose(regressor_row(4, 0), np.ones(4), atol=1e-15)


def test_regressor_row_fourth_roots():
    np.testing.assert_allclose(regressor_row(4, 1), [1, -1j, -1, 1j], atol=1e-15)


def test_regressor_row_unit_magnitude():
    for n in (3, 8, 17):
        for t in range(n):
            np.testing.assert_allclose(np.abs(regressor_row(n, t)), 1.0, atol=1e-15)


def test_regressor_row_bad_index():
    with pytest.raises(ValueError):
        regressor_row(8, 8)
    with pytest.raises(ValueError):
        regressor_row(8, -1)
    # a bool passes 0 <= t < n, and a float would index with numpy's bare error
    for t in (True, np.True_, 2.0, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^time index must be an integer, got"):
            regressor_row(8, t)
    assert regressor_row(8, np.int32(3)).tobytes() == regressor_row(8, 3).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 3 * sensing._ROW_BLOCK + 5, 4 * sensing._ROW_BLOCK])
def test_fourier_rows_built_in_blocks_equal_the_one_shot_table(n):
    # the table is filled a block of rows at a time (53 ends on a partial
    # block, 64 on a whole one); it holds the first N//2 + 1 columns of the
    # one-shot gather of roots[(t k) mod n], and regressor_row's full row t is
    # that gather's row t, bit for bit.  The table is read-only and passes the
    # magnitude bound
    fourier_rows.cache_clear()
    rows = fourier_rows(n)
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    want = roots[np.outer(np.arange(n), np.arange(n)) % n]
    assert rows.dtype == want.dtype and rows.shape == (n, n // 2 + 1)
    assert rows.view(float).tobytes() == want[:, :n // 2 + 1].view(float).tobytes()
    for t in range(n):
        assert regressor_row(n, t).view(float).tobytes() == want[t].view(float).tobytes()
    assert not rows.flags.writeable
    assert sensing.unit_rows(n) is rows


def test_second_moment_identity_direct_sum():
    # direct summation oracle at N=8
    n = 8
    acc = np.zeros((n, n), dtype=complex)
    for t in range(n):
        x = regressor_row(n, t)
        acc += np.outer(x, x.conj())
    np.testing.assert_allclose(acc / n, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 65))
def test_second_moment_identity_exhaustive(n):
    rows = np.stack([regressor_row(n, t) for t in range(n)])
    gram = rows.T @ rows.conj() / n
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_sample_indices_full_sampling():
    cfg = SensingConfig(n=4, m=4, mode=RepeatedPass(1), seed=3)
    np.testing.assert_array_equal(sample_indices(cfg, 0), [0, 1, 2, 3])


def test_sample_indices_deterministic():
    cfg = SensingConfig(n=1000, m=200, mode=Windowed(2), seed=42)
    a = sample_indices(cfg, 0)
    b = sample_indices(cfg, 0)
    np.testing.assert_array_equal(a, b)
    assert a.size == 200 and np.unique(a).size == 200
    assert a.min() >= 0 and a.max() < 1000
    assert not np.array_equal(a, sample_indices(cfg, 1))


def test_sample_indices_frequency():
    # every position should be sampled with empirical frequency M/N = 0.2
    cfg = SensingConfig(n=1000, m=200, mode=Windowed(10_000), seed=7)
    counts = np.zeros(1000)
    for w in range(10_000):
        counts[sample_indices(cfg, w)] += 1
    freq = counts / 10_000
    assert abs(freq.mean() - 0.2) < 1e-12  # exactly M/N by construction
    assert np.all(np.abs(freq - 0.2) < 0.02)


def test_config_validation():
    with pytest.raises(ValueError):
        SensingConfig(n=10, m=11, mode=RepeatedPass(1))
    with pytest.raises(ValueError):
        SensingConfig(n=10, m=0, mode=RepeatedPass(1))
    with pytest.raises(ValueError):
        SensingConfig(n=10, m=5, mode=RepeatedPass(0))
    with pytest.raises(ValueError):
        SensingConfig(n=10, m=5, mode=Windowed(0))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
        SensingConfig(n=64, m=8, mode=RepeatedPass(1), seed=-5)


def test_repeated_pass_replays_measurements():
    cfg = SensingConfig(n=16, m=3, mode=RepeatedPass(2), seed=5)
    z = np.arange(16.0)
    samples = list(make_stream(cfg, [z], noise_std=0.3))
    assert len(samples) == 6
    for first, second in zip(samples[:3], samples[3:]):
        assert first.y == second.y  # noise included, bit for bit
        np.testing.assert_array_equal(first.x, second.x)


def test_windowed_counts_and_fresh_indices():
    cfg = SensingConfig(n=1000, m=200, mode=Windowed(2), seed=8)
    z = np.zeros(1000)
    samples = list(make_stream(cfg, itertools.repeat(z, 2)))
    assert len(samples) == 400
    idx0 = sample_indices(cfg, 0)
    idx1 = sample_indices(cfg, 1)
    assert not np.array_equal(idx0, idx1)


def test_stream_deterministic():
    cfg = SensingConfig(n=64, m=16, mode=Windowed(3), seed=21)
    z = np.sin(np.arange(64.0))
    a = list(make_stream(cfg, itertools.repeat(z, 3), noise_std=0.1))
    b = list(make_stream(cfg, itertools.repeat(z, 3), noise_std=0.1))
    for sa, sb in zip(a, b):
        assert sa.y == sb.y
        np.testing.assert_array_equal(sa.x, sb.x)


def test_stream_samples_hold_python_numbers_and_carry_the_unit_proof():
    # the proof an estimator reads is x.base: the table unit_rows gave it.  x
    # is a whole row of that table, the row's bins 0..N/2
    cfg = SensingConfig(n=16, m=4, mode=RepeatedPass(2), seed=3)
    samples = list(make_stream(cfg, [np.arange(16.0)], noise_std=0.1))
    rows = fourier_rows(16)
    assert sensing.unit_rows(16) is rows
    for smp, t in zip(samples, np.tile(sample_indices(cfg, 0), 2)):
        assert type(smp.y) is float
        assert smp.x.base is rows and smp.x.tobytes() == rows[t].tobytes()
        assert smp.x.shape == (9,)
        assert smp.x.flags.c_contiguous and not smp.x.flags.writeable
    # a replay yields the same objects
    assert all(a is b for a, b in zip(samples[:4], samples[4:]))


def test_stream_off_an_unregistered_table_has_no_unit_proof(monkeypatch):
    # roots that fail the bound leave no unit rows; the stream still yields
    # views of fourier_rows, on which an estimator takes the dense rule
    rows = fourier_rows(16)
    monkeypatch.setattr(sensing, "UNIT_SQ_MAG_BOUND", 1.0 - 1e-3)
    assert sensing.unit_rows(16) is None
    assert fourier_rows(16) is rows
    cfg = SensingConfig(n=16, m=4, mode=RepeatedPass(1), seed=3)
    assert all(smp.x.base is rows for smp in make_stream(cfg, [np.zeros(16)]))


@pytest.mark.parametrize("noise_std", [-0.5, math.nan, math.inf])
def test_stream_rejects_a_bad_noise_std(noise_std):
    cfg = SensingConfig(n=16, m=4, mode=Windowed(1))
    with pytest.raises(ValueError, match=r"^noise_std must be finite and >= 0, got"):
        next(make_stream(cfg, [np.zeros(16)], noise_std))


def test_stream_exhaustion():
    cfg = SensingConfig(n=8, m=4, mode=Windowed(3), seed=1)
    with pytest.raises(StreamExhausted):
        list(make_stream(cfg, [np.zeros(8), np.zeros(8)]))
    # a source that yields a complex window fails at that window, naming it,
    # unless the imaginary part is exactly zero
    z = np.arange(8.0)
    for imag in (1e-300, math.nan):
        with pytest.raises(ValueError, match=r"^window 1 has a nonzero imaginary part"):
            list(make_stream(cfg, [z, z + complex(0.0, imag), z]))
    real = list(make_stream(cfg, [z, z, z]))
    assert [s.y for s in make_stream(cfg, [z, z + 0j, z])] == [s.y for s in real]


def test_noiseless_full_sampling_matches_spectrum_prediction():
    # IDFT identity: y(t) = w^H x(t) for every time index, the full row's
    # product from the streamed bins 0..N/2 (interior bins twice)
    spec = SignalSpec(n=32, sines=3, bins=(2, 5, 9))
    z = multisine(spec)
    w = true_spectrum(spec)
    cfg = SensingConfig(n=32, m=32, mode=RepeatedPass(1), seed=0)
    for sample in make_stream(cfg, [z]):
        x = sample.x
        wx = 2.0 * np.vdot(w[:17], x).real - (np.conj(w[0]) * x[0]).real
        wx -= (np.conj(w[16]) * x[16]).real
        assert abs(sample.y - wx) < 1e-10
