import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import sparselms
from sparselms import harness
from sparselms.estimators import EstimatorConfig
from sparselms.experiments import (
    REGISTRY,
    build_exp1,
    build_exp2,
    build_exp3,
    build_exp4_tracking,
    get_experiment,
    load_specs,
    save_spec,
    spec_from_dict,
    spec_to_dict,
)
from sparselms.harness import (
    AlgorithmSpec,
    ExperimentSpec,
    TrackingSpec,
    bootstrap_diff_ci,
    rmse,
    rmse_db,
    run_experiment,
    run_trial,
    time_to_reach,
    write_curves_csv,
    write_gnuplot_dat,
    write_summary_csv,
)
from sparselms.sensing import RepeatedPass, SensingConfig, Windowed
from sparselms.signals import SignalSpec
from sparselms.tracker import TrackerParams


def tiny_spec(trials=2, **overrides):
    base = dict(
        name="tiny",
        signal=SignalSpec(n=32, sines=2, snr_db=20.0),
        sensing=SensingConfig(n=32, m=16, mode=RepeatedPass(20)),
        algorithms=(
            AlgorithmSpec("HARD-4", EstimatorConfig("hard", mu=1 / 32, s=4, burn_in=16)),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=1 / 32)),
        ),
        trials=trials,
        seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -- rmse ----------------------------------------------------------------------


def test_rmse_zero_estimate():
    # N = 2: bins 0 and 1 are both their own conjugates
    assert rmse([1.0, 0.0], [0.0, 0.0], 2) == 1.0
    assert rmse_db(1.0) == 0.0


def test_rmse_exact_estimate_floors():
    assert rmse([1.0, 0.0], [1.0, 0.0], 2) == 0.0
    assert rmse_db(0.0) == -120.0


def test_rmse_hand_example():
    assert rmse([1.0, 0.0], [1.0, 0.1], 2) == pytest.approx(0.01)
    assert rmse_db(0.01) == pytest.approx(-20.0)
    # N = 3: bin 1 stands for bins 1 and 2, so its error counts twice
    assert rmse([1.0, 0.0], [1.0, 0.1], 3) == pytest.approx(0.02)
    assert rmse([0.0, 1.0], [0.1, 1.0], 3) == pytest.approx(0.005)


def test_rmse_zero_reference_rejected():
    with pytest.raises(ValueError):
        rmse([0.0, 0.0], [1.0, 0.0], 2)


def test_rmse_rejects_mismatched_shapes():
    # broadcasting would compare every entry with the one estimate, and give 1.0
    with pytest.raises(ValueError, match=re.escape("shape (3,), estimate has shape (1,)")):
        rmse(np.ones(3), np.zeros(1), 4)
    with pytest.raises(ValueError, match=re.escape("spectra have shape (3,), expected (4,)")):
        rmse(np.ones(3), np.zeros(3), 6)


# -- divergence guard and LMS floor ----------------------------------------------


def _poisoned_at(step: int, value: float = math.nan):
    """An Estimator whose iterate gets ``value`` right after the given step."""

    class Poisoned(harness.Estimator):
        done = 0

        def step(self, sample):
            super().step(sample)
            self.done += 1
            if self.done == step:
                w = self.state.w.copy()  # an iterate is changed by assignment only
                w[3] = value
                self.state.w = w

    return Poisoned


def test_run_trial_names_the_first_non_finite_step(monkeypatch):
    monkeypatch.setattr(harness, "Estimator", _poisoned_at(50))
    spec = tiny_spec(trials=1)
    with pytest.raises(ValueError, match=r"^LMS trial 0: r-MSE is nan at step 50$"):
        run_trial(spec, spec.algorithms[1], 0)


def test_run_trial_names_the_step_that_raised(monkeypatch):
    # the NaN spreads to every coefficient on the next step, and the top-s cut
    # refuses it; the error keeps the cut's message
    monkeypatch.setattr(harness, "Estimator", _poisoned_at(50))
    spec = tiny_spec(trials=1)
    with pytest.raises(ValueError, match=r"^HARD-4 trial 0, step 51: non-finite coefficient"):
        run_trial(spec, spec.algorithms[0], 0)


def test_run_experiment_never_averages_a_diverged_trial(monkeypatch):
    monkeypatch.setattr(harness, "Estimator", _poisoned_at(7))
    with pytest.raises(ValueError, match=r"trial 0"):
        run_experiment(tiny_spec(trials=2, algorithms=tiny_spec().algorithms[1:]))


def _per_step_rmse(spec, algo, trial, kept=None):
    """run_trial's r-MSE trajectory recomputed with _sq_norm after every step;
    ``kept``, when given, gets the K of each iterate that is zero off a support
    small enough for a support row, or None."""
    n = spec.signal.n
    est = harness.Estimator(algo.estimator, n, algo.tracker)
    out = []
    for phase in harness._build_phases(spec, trial):
        w_true = phase.w_true[:n // 2 + 1]
        sig2 = harness._sq_norm(w_true, n)
        windows = itertools.repeat(phase.z, phase.sensing.n_windows)
        for sample in harness.make_stream(phase.sensing, windows, phase.sigma):
            est.step(sample)
            out.append(harness._sq_norm(est.state.w - w_true, n) / sig2)
            if kept is not None:
                sparse = est.sparse_iterate()
                small = sparse is not None and (
                    sparse[0].size <= (n // 2 + 1) * harness.SUPPORT_ROW_SHARE)
                kept.append(sparse[0] if small else None)
    return np.array(out)


def _assert_bitwise_equal(got, want, label):
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), label


@pytest.mark.parametrize("build", [build_exp2, build_exp3, build_exp4_tracking])
def test_blocked_rmse_matches_a_per_step_reference(build):
    spec = build(trials=1, n=64)
    # a partial last block, and for exp4 a phase change inside a block
    lengths = [p.sensing.total_samples for p in harness._build_phases(spec, 0)]
    assert any(n % harness.RMSE_BLOCK for n in lengths)
    for algo in spec.algorithms:
        got = run_trial(spec, algo, 0).rmse_lin_trajectory
        _assert_bitwise_equal(got, _per_step_rmse(spec, algo, 0), algo.label)


def _mid_block(i):
    return i % harness.RMSE_BLOCK != 0


def _k_change(kept):
    """A step inside a block whose K differs from the last step's, and drops
    one of its columns."""
    return any(
        a is not None and b is not None and a is not b and _mid_block(i)
        and np.setdiff1d(a, b).size
        for i, (a, b) in enumerate(zip(kept, kept[1:]), 1)
    )


def _phase_change(spec, kept):
    """The same K on both sides of a phase change inside a block."""
    i = harness._build_phases(spec, 0)[0].sensing.total_samples
    return _mid_block(i) and kept[i - 1] is not None and kept[i - 1] is kept[i]


@pytest.mark.parametrize(
    "name, label, poison, event",
    [
        # burn-in's dense rows, then support rows, in the first block
        ("exp2", "HARD-20", None, lambda spec, kept: kept[25] is None and kept[26] is not None),
        # a dense cut onto a new K
        ("exp3", "HARD-L0", None, lambda spec, kept: _k_change(kept)),
        ("exp4-tracking", "HARD-EST", None, lambda spec, kept: _k_change(kept)),
        ("exp4-tracking", "HARD-EST-SIMPLE", None, _phase_change),
        # state.w reassigned after step 300: a dense row, then a new K
        ("exp2", "HARD-EST", 300,
         lambda spec, kept: kept[298] is not None and kept[299] is None and kept[300] is not None),
    ],
    ids=["burn-in", "K-change", "K-change-exp4", "phase-change", "reassigned"],
)
def test_support_rows_match_a_per_step_reference(monkeypatch, name, label, poison, event):
    spec = get_experiment(name, trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == label)
    if poison is not None:
        monkeypatch.setattr(harness, "Estimator", _poisoned_at(poison, 0.25))
    kept = []
    want = _per_step_rmse(spec, algo, 0, kept)
    assert event(spec, kept)
    _assert_bitwise_equal(run_trial(spec, algo, 0).rmse_lin_trajectory, want, label)


@pytest.mark.parametrize("label", ["HARD-20", "HARD-EST"])
def test_exp2_takes_the_support_rows_after_burn_in(monkeypatch, label):
    # after burn-in every step of hard ends on a top-s cut or a certified step,
    # so its iterate is zero off the record's K: measured at N = 64, trial 0,
    # 1274 of 1274 steps for both labels
    spec = get_experiment("exp2", trials=1, n=64)
    algo = next(a for a in spec.algorithms if a.label == label)
    dense = []
    rows = harness._rmse_rows

    def counted(*args):
        dense.append(args[-1].size)  # out
        return rows(*args)

    monkeypatch.setattr(harness, "_rmse_rows", counted)
    run_trial(spec, algo, 0)
    assert sum(dense) == algo.estimator.burn_in


class _DenseIterate:
    """What _RmseRows.add reads of an estimator whose iterate is dense."""

    def __init__(self, w):
        self.state = SimpleNamespace(w=w)

    def sparse_iterate(self):
        return None


# signed zeros, subnormals and the smallest normal, as parts of an iterate
_SMALL_PARTS = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 0.5, -3.0]


def test_dense_rows_match_the_per_row_subtraction():
    # two phases of more than a block each (the second ends mid-block), and a
    # w* whose zeros include -0.0 entries that np.flatnonzero leaves off T
    rng = np.random.default_rng(5)
    n, h = 12, 7
    w_a = np.zeros(h, dtype=complex)
    w_a[[2, 6]] = [-0.5j, 0.5]
    w_b = w_a.copy()
    w_b[[4, 1]] = [0.25 - 1j, 3.0]
    w_b[[0, 5]] = [complex(-0.0, -0.0), complex(-0.0, 0.0)]
    w_b[3] = complex(0.0, -0.0)
    phases = [(w_a, 40), (w_b, 45)]
    parts = np.array(_SMALL_PARTS)
    specials = [complex(-0.0, -0.0), 1e300, complex(1.0, -1e300), math.inf,
                complex(0.0, -math.inf), complex(math.nan, 1.0), -math.nan]
    iterates = []
    for _, count in phases:
        ws = []
        for i in range(count):
            w = np.empty(h, dtype=complex)
            w.real = parts[rng.integers(parts.size, size=h)]
            w.imag = parts[rng.integers(parts.size, size=h)]
            if i < len(specials):
                # on T, off T, and on the -0.0 entries of w_b
                w[[i % 3, 4, 5, 6, 3]] = specials[i]
            ws.append(w)
        iterates.append(ws)

    out = np.empty(sum(count for _, count in phases))
    rows = harness._RmseRows(out, n)
    want = []
    with np.errstate(all="ignore"):
        for (w_true, _), ws in zip(phases, iterates):
            rows.phase(w_true)
            sig2 = harness._sq_norm(w_true, n)
            for w in ws:
                rows.add(_DenseIterate(w))
                want.append(harness._sq_norm(w - w_true, n) / sig2)
        rows.flush()
    want = np.array(want)
    assert np.isnan(want).any() and np.isinf(want).any() and np.isfinite(want).any()
    _assert_bitwise_equal(out, want, "dense rows")


def test_a_k_that_changes_every_step_takes_dense_rows(monkeypatch):
    # exp4's HARD-EST moves K on runs of consecutive steps after its signal
    # change; a support row per new K cost a one-row flush each (181 of them
    # in this trial, 3 for HARD-EST-SIMPLE) where a dense row is several
    # times cheaper.  Only the first K of a run is taken as support rows
    # (95 and 0 one-row flushes, measured on bins 0..N/2).
    spec = build_exp4_tracking(trials=1, n=64)
    flushes = []
    flush = harness._RmseRows.flush

    def counted(self):
        if self.rows:
            flushes.append((self.kept is not None, self.rows))
        flush(self)

    monkeypatch.setattr(harness._RmseRows, "flush", counted)
    for algo, one_row in zip(spec.algorithms, (95, 0)):
        flushes.clear()
        run_trial(spec, algo, 0)
        assert flushes.count((True, 1)) == one_row, algo.label


class _SparseIterate(_DenseIterate):
    """What _RmseRows.add reads of an estimator whose iterate is zero off K."""

    def __init__(self, kept, values, n):
        w = np.zeros(n, dtype=complex)
        w[kept] = values
        super().__init__(w)
        self.sparse = (kept, values)

    def sparse_iterate(self):
        return self.sparse


def test_a_wide_k_takes_support_rows_once_it_has_lasted_a_block(monkeypatch):
    # K of more than RMSE_BLOCK entries: two that last 10 steps, as exp4's
    # moving supports do, take dense rows only; one that lasts 80 takes dense
    # rows for RMSE_BLOCK steps, then support rows.  A K of RMSE_BLOCK entries
    # or fewer takes support rows from its first step, as before
    n, h, block = 200, 101, harness.RMSE_BLOCK
    rng = np.random.default_rng(12)
    w_true = np.zeros(h, dtype=complex)
    w_true[rng.choice(h, size=30, replace=False)] = rng.standard_normal(30) + 1j
    runs = [(block + 8, 10), (block + 8, 10), (block + 8, 80), (block, 20), (block + 1, 40)]
    flushes = []
    flush = harness._RmseRows.flush

    def counted(self):
        if self.rows:
            flushes.append((None if self.kept is None else self.kept.size, self.rows))
        flush(self)

    monkeypatch.setattr(harness._RmseRows, "flush", counted)
    out = np.empty(sum(steps for _, steps in runs))
    rows = harness._RmseRows(out, n)
    rows.phase(w_true)
    sig2 = harness._sq_norm(w_true, n)
    want = []
    for size, steps in runs:
        kept = np.sort(rng.choice(h, size=size, replace=False))
        for _ in range(steps):
            it = _SparseIterate(kept, rng.standard_normal(size) + 1j * rng.standard_normal(size), h)
            rows.add(it)
            want.append(harness._sq_norm(it.state.w - w_true, n) / sig2)
    rows.flush()
    _assert_bitwise_equal(out, np.array(want), "wide K")
    support = [(size, count) for size, count in flushes if size is not None]
    # the 80-step K from its 33rd step: 48 rows, in blocks of RMSE_BLOCK
    assert support == [(block + 8, block), (block + 8, 48 - block), (block, 20), (block + 1, 8)]
    assert sum(count for size, count in flushes if size is None) == 10 + 10 + block + block


# the squares of a huge finite iterate overflow in the cut's check, the
# certificate and the r-MSE
_HUGE_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in (dot|multiply):RuntimeWarning"
)


@pytest.mark.parametrize(
    "step, value, message",
    [
        # poisoned during burn-in (26 steps): the first top-s cut refuses it
        pytest.param(5, math.nan, "trial 0, step 27: non-finite coefficient at position 0: "
                     "(nan+nanj)", id="nan-in-burn-in"),
        pytest.param(15, math.inf, "trial 0, step 27: non-finite coefficient at position 0: "
                     "(nan+nanj)", id="inf-in-burn-in"),
        pytest.param(400, math.nan, "trial 0, step 401: non-finite coefficient at position 0: "
                     "(nan+nanj)", id="nan-after-burn-in"),
        # a finite iterate whose r-MSE overflows; an interior bin stands for
        # two, so a value near the largest float would overflow w^H x itself
        pytest.param(40, 1e307, "trial 0: r-MSE is inf at step 40", id="huge-early",
                     marks=_HUGE_OVERFLOWS),
        pytest.param(1000, 1e307, "trial 0: r-MSE is inf at step 1000", id="huge-late",
                     marks=_HUGE_OVERFLOWS),
    ],
)
def test_diverging_xi0_tracker_is_reported_where_it_was(monkeypatch, step, value, message):
    # HARD-EST-SIMPLE (xi = 0) skips its tracker updates; each failure keeps the
    # step and the message of a run that makes them
    spec = build_exp4_tracking(trials=1, n=64)
    algo = spec.algorithms[1]
    assert algo.tracker.xi == 0.0 and algo.estimator.burn_in == 26
    monkeypatch.setattr(harness, "Estimator", _poisoned_at(step, value))
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{algo.label} {message}')}$"):
        run_trial(spec, algo, 0)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_run_trial_stops_a_finite_divergence(monkeypatch):
    # w[3] = 1e150 keeps every iterate finite, and its r-MSE of about 2e300 (bin
    # 3 counts twice) would otherwise enter the curve
    spec = build_exp4_tracking(trials=1, n=64)
    algo = spec.algorithms[1]
    monkeypatch.setattr(harness, "Estimator", _poisoned_at(5, 1e150))
    with pytest.raises(
        ValueError,
        match=r"^HARD-EST-SIMPLE trial 0: r-MSE is 1\.9999999999999998e\+300 at step 5, "
        r"above the ceiling 1e\+06$",
    ):
        run_trial(spec, algo, 0)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_csvs_match_recorded_digests(tmp_path, name):
    # SHA-256 of every CSV that `sparselms run NAME --scale 64 --trials 2` writes:
    # a change of the arithmetic, the BLAS or a numpy kernel that moves a bit of
    # a curve fails here instead of drifting silently
    from sparselms.cli import main

    digests = json.loads((Path(__file__).parent / "data" / "registry_digests.json").read_text())
    assert main(["run", name, "--scale", "64", "--trials", "2", "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == digests[name]


# About six times the per-trial spread of the LMS steady state around the
# analytic floor; it excludes 0 dB, the value of an estimator that learns
# nothing.  The benchmark fixed the same tolerance before measuring.
LMS_FLOOR_TOL_DB = 0.6


def test_lms_steady_state_sits_on_the_analytic_floor():
    spec = build_exp2(trials=1)
    lms = next(a for a in spec.algorithms if a.label == "LMS")
    traj = run_trial(spec, lms, 0).rmse_lin_trajectory
    steady = 10.0 * math.log10(traj[-max(1, traj.size // 10):].mean())
    floor = 10.0 * math.log10(1.0 - spec.sensing.m / spec.sensing.n)
    assert spec.sensing.n == 1000
    assert abs(steady - floor) <= LMS_FLOOR_TOL_DB, (steady, floor)


# -- determinism -----------------------------------------------------------------


def test_trial_deterministic():
    spec = tiny_spec()
    a = run_trial(spec, spec.algorithms[0], 0)
    b = run_trial(spec, spec.algorithms[0], 0)
    np.testing.assert_array_equal(a.rmse_lin_trajectory, b.rmse_lin_trajectory)
    assert a.final_support == b.final_support


def test_trials_share_realizations_across_algorithms():
    # same derivation for bins/indices/noise regardless of the algorithm
    spec = tiny_spec()
    rec = run_trial(spec, spec.algorithms[1], 0)
    assert rec.rmse_lin_trajectory[0] != rec.rmse_lin_trajectory[-1]


def test_trajectory_length_matches_stream():
    spec = tiny_spec(trials=1)
    rec = run_trial(spec, spec.algorithms[0], 0)
    assert rec.rmse_lin_trajectory.size == spec.sensing.total_samples


def test_experiment_csv_byte_identical(tmp_path):
    spec = tiny_spec()
    digests = []
    for run in range(2):
        res = run_experiment(spec)
        path = tmp_path / f"curves_{run}.csv"
        write_curves_csv(res, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def _curves_csv_row_by_row(result, path):
    """write_curves_csv as first written: one csv.writer row per iteration."""
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["experiment", "label", "iteration", "rmse_db", "s_est_mean"])
        fixed = {a.label: a.estimator.s for a in result.spec.algorithms
                 if a.estimator.variant in ("sza", "hard", "hard_l0")}
        for label, db in result.curves_db.items():
            s_curve = result.s_mean[label]
            for i in range(db.size):
                if s_curve is not None and not math.isnan(s_curve[i]):
                    s_val = f"{s_curve[i]:.4f}"
                elif fixed.get(label) is not None:
                    s_val = str(fixed[label])
                else:
                    s_val = ""
                w.writerow([result.spec.name, label, i + 1, f"{db[i]:.6f}", s_val])


def test_curves_csv_matches_a_row_by_row_writer(tmp_path, monkeypatch):
    # labels that need quoting, a tracker budget with a burn-in gap, a fixed
    # budget and no budget, over several chunks
    monkeypatch.setattr(harness, "CSV_CHUNK", 7)
    spec = tiny_spec(
        name='tiny, "quoted"',
        algorithms=(
            AlgorithmSpec('HARD "4", fixed', EstimatorConfig("hard", mu=1 / 32, s=4, burn_in=16)),
            AlgorithmSpec("EST\nnext", EstimatorConfig("hard", mu=1 / 32, burn_in=16),
                          tracker=TrackerParams(xi=1 / 32)),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=1 / 32)),
        ),
    )
    res = run_experiment(spec)
    write_curves_csv(res, tmp_path / "chunked.csv")
    _curves_csv_row_by_row(res, tmp_path / "rows.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_summary_and_gnuplot_outputs(tmp_path):
    res = run_experiment(tiny_spec())
    write_summary_csv(res, tmp_path / "summary.csv")
    write_gnuplot_dat(res, tmp_path / "curves.dat")
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,label,trials,iterations,final_rmse_db,steady_rmse_db"
    assert len(summary) == 3
    dat = (tmp_path / "curves.dat").read_text().splitlines()
    assert dat[0].startswith("# iteration")
    assert len(dat) == 1 + tiny_spec().sensing.total_samples


def test_steady_state_tail_must_lie_within_the_curve(tmp_path):
    curve = np.array([1.0, 1.0, 1e-3, 1e-3])
    spec = SimpleNamespace(name="tails", trials=1)
    res = harness.ExperimentResult(spec, {"a": curve}, {"a": rmse_db(curve)}, {"a": None}, {})
    assert res.steady_state_db("a", 1) == res.steady_state_db("a", 2) == pytest.approx(-30.0)
    assert res.steady_state_db("a", 4) == pytest.approx(rmse_db(curve.mean()))
    for tail in (0, -1, 5):
        with pytest.raises(ValueError, match=re.escape(f"tail must be in [1, 4], got tail={tail}")):
            res.steady_state_db("a", tail)
        with pytest.raises(ValueError, match="tail"):
            write_summary_csv(res, tmp_path / "summary.csv", tail)


def test_monotone_sanity_noiseless_full_sampling():
    spec = tiny_spec(
        trials=2,
        signal=SignalSpec(n=32, sines=2, snr_db=math.inf),
        sensing=SensingConfig(n=32, m=32, mode=RepeatedPass(50)),
    )
    res = run_experiment(spec)
    for label in ("HARD-4", "LMS"):
        assert res.curves_db[label][-1] < -80.0


# -- helpers ---------------------------------------------------------------------


def test_time_to_reach():
    traj = np.array([1.0, 0.5, 0.02, 0.001])
    assert time_to_reach(traj, -15.0) == 3  # 0.02 < 10^-1.5
    assert time_to_reach(traj, -40.0) is None


def test_bootstrap_ci_contains_true_difference():
    rng = np.random.default_rng(0)
    a = rng.normal(10.0, 1.0, size=200)
    b = rng.normal(12.0, 1.0, size=200)
    lo, hi = bootstrap_diff_ci(a, b, seed=1)
    assert lo < 2.0 < hi
    assert lo > 0.0  # clearly separated


def test_bootstrap_requires_paired_lengths():
    with pytest.raises(ValueError):
        bootstrap_diff_ci(np.zeros(3), np.zeros(4))
    # empty samples, no resamples and an alpha outside (0, 1) name the argument
    with pytest.raises(ValueError, match=r"^paired samples a and b must not be empty$"):
        bootstrap_diff_ci(np.zeros(0), np.zeros(0))
    for n_boot in (0, -1):
        with pytest.raises(ValueError, match=r"^n_boot must be >= 1, got"):
            bootstrap_diff_ci(np.zeros(3), np.ones(3), n_boot=n_boot)
    for alpha in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got"):
            bootstrap_diff_ci(np.zeros(3), np.ones(3), alpha=alpha)
    assert bootstrap_diff_ci(np.zeros(3), np.ones(3), n_boot=1) == (1.0, 1.0)
    # a sample that is not 1-D, or holds a NaN or an infinity, is named; these
    # used to give (nan, nan), a RuntimeWarning or an IndexError
    for sample, message in [
        (np.zeros((3, 2)), r"must be 1-D, got shape \(3, 2\)"),
        (np.float64(1.0), r"must be 1-D, got shape \(\)"),
        ([0.0, math.nan, 1.0], r"must be finite, got nan at index 1"),
        ([0.0, 1.0, math.inf], r"must be finite, got inf at index 2"),
        ([-math.inf, 0.0, 1.0], r"must be finite, got -inf at index 0"),
    ]:
        with pytest.raises(ValueError, match=rf"^a {message}$"):
            bootstrap_diff_ci(sample, np.zeros(3))
        with pytest.raises(ValueError, match=rf"^b {message}$"):
            bootstrap_diff_ci(np.zeros(3), sample)


# -- tracking plumbing -------------------------------------------------------------


def test_tracking_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(tracking=TrackingSpec((5, 5), 2))  # repeated-pass sensing
    with pytest.raises(ValueError):
        tiny_spec(
            sensing=SensingConfig(n=32, m=16, mode=Windowed(8)),
            tracking=TrackingSpec((5, 5), 2),
        )  # windows mismatch


@pytest.mark.parametrize("windows", [(4,), (3, 3, 2)])
def test_tracking_spec_needs_two_phases(windows):
    # three phases summing to the window count used to pass, and run_trial
    # then ran the first two alone
    with pytest.raises(ValueError, match=rf"^phase_windows must have 2 items, got {len(windows)}$"):
        TrackingSpec(windows, 2)


def test_tracking_spec_needs_bins_for_its_extra_sines():
    spec = dict(
        name="tiny-track",
        sensing=SensingConfig(n=16, m=8, mode=Windowed(4)),
        algorithms=(AlgorithmSpec("LMS", EstimatorConfig("lms", mu=1 / 16)),),
        trials=1,
        seed=5,
    )
    # bins 1..7: 3 + 4 sines fit, 3 + 5 do not
    ExperimentSpec(signal=SignalSpec(n=16, sines=3), tracking=TrackingSpec((2, 2), 4), **spec)
    with pytest.raises(ValueError, match=r"cannot place 3 \+ 5 sines"):
        ExperimentSpec(
            signal=SignalSpec(n=16, sines=3), tracking=TrackingSpec((2, 2), 5), **spec
        )


def test_tracking_experiment_small():
    spec = ExperimentSpec(
        name="tiny-track",
        signal=SignalSpec(n=64, sines=2, snr_db=20.0),
        sensing=SensingConfig(n=64, m=32, mode=Windowed(60)),
        algorithms=(
            AlgorithmSpec(
                "EST",
                EstimatorConfig("hard", mu=1 / 64, burn_in=64),
                tracker=TrackerParams(lam=0.98, xi=20 / 64, q_star=0.05),
            ),
        ),
        trials=1,
        seed=5,
        tracking=TrackingSpec(phase_windows=(30, 30), extra_sines=2),
    )
    res = run_experiment(spec)
    rec = res.records["EST"][0]
    m = spec.sensing.m
    s_phase1 = np.nanmean(rec.s_trajectory[20 * m : 30 * m])
    s_phase2 = np.nanmean(rec.s_trajectory[-10 * m :])
    assert s_phase1 == pytest.approx(4, abs=1.0)
    assert s_phase2 == pytest.approx(8, abs=1.5)
    assert rec.rmse_lin_trajectory.size == 60 * m


# -- registry and config files -------------------------------------------------------


def test_registry_names():
    assert set(REGISTRY) == {"exp1", "exp2", "exp3", "exp-msweep", "exp4-tracking"}


def test_get_experiment_overrides():
    spec = get_experiment("exp2", trials=5, n=256, seed=1)
    assert spec.trials == 5
    assert spec.signal.n == 256
    assert spec.sensing.m == 51  # scaled from 200/1000
    assert spec.seed == 1
    assert spec.algorithms[0].estimator.mu == pytest.approx(1 / 256)


def test_get_experiment_unknown():
    with pytest.raises(KeyError):
        get_experiment("exp9")


def test_spec_dict_round_trip():
    for build in (build_exp1, build_exp2, build_exp4_tracking):
        spec = build()
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_rejects_unknown_sensing_mode():
    d = spec_to_dict(build_exp2())
    d["sensing"]["mode"] = "repaeted"  # used to load as Windowed
    with pytest.raises(ValueError, match=r"sensing\.mode .*'repaeted'"):
        spec_from_dict(d)


def _set(d: dict, path: tuple, value) -> dict:
    """``d`` with the entry at ``path`` set to ``value``."""
    section = d
    for part in path[:-1]:
        section = section[part]
    section[path[-1]] = value
    return d


@pytest.mark.parametrize(
    "path, name",
    [
        (("comment",), "comment"),
        (("signal", "seed"), "signal.seed"),
        (("sensing", "seed"), "sensing.seed"),
        (("algorithms", 1, "weight"), "algorithms[1].weight"),
        (("algorithms", 0, "estimator", "sigma"), "algorithms[0].estimator.sigma"),
        (("algorithms", 0, "tracker", "gain"), "algorithms[0].tracker.gain"),
        (("tracking", "windows"), "tracking.windows"),
    ],
)
def test_spec_rejects_unknown_key(path, name):
    d = _set(spec_to_dict(build_exp4_tracking()), path, 0)
    with pytest.raises(ValueError, match=rf"unknown config key {re.escape(name)}$"):
        spec_from_dict(d)


@pytest.mark.parametrize("value", [True, False])
def test_config_with_a_tracker_use_support_fails_at_load(tmp_path, value):
    # older exports wrote use_support: false; the key selects nothing now
    from sparselms.cli import main

    path = ("algorithms", 1, "tracker", "use_support")
    d = _set(spec_to_dict(build_exp4_tracking()), path, value)
    message = r"unknown config key algorithms\[1\]\.tracker\.use_support"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        spec_from_dict(d)
    config = tmp_path / "old.yaml"
    config.write_text(yaml.safe_dump(d))
    with pytest.raises(SystemExit) as stop:  # printed as one line, exit status 1
        main(["run", str(config), "--out", str(tmp_path)])
    assert re.fullmatch(rf"error: {re.escape(str(config))}: {message}", stop.value.code)


@pytest.mark.parametrize(
    "path, name",
    [
        (("signal",), "signal"),
        (("trials",), "trials"),
        (("signal", "n"), "signal.n"),
        (("sensing", "m"), "sensing.m"),
        (("sensing", "count"), "sensing.count"),
        (("algorithms", 1, "label"), "algorithms[1].label"),
        (("algorithms", 0, "estimator", "variant"), "algorithms[0].estimator.variant"),
        (("tracking", "extra_sines"), "tracking.extra_sines"),
    ],
)
def test_spec_names_a_missing_key(path, name):
    # used to raise a bare KeyError
    d = spec_to_dict(build_exp4_tracking())
    section = d
    for part in path[:-1]:
        section = section[part]
    del section[path[-1]]
    with pytest.raises(ValueError, match=rf"missing config key {re.escape(name)}$"):
        spec_from_dict(d)


@pytest.mark.parametrize(
    "path, value, name",
    [
        (("trials",), "2", "trials"),
        (("trials",), True, "trials"),
        (("trials",), 2.5, "trials"),
        (("algorithms", 0, "estimator", "mu"), "0.001", "algorithms[0].estimator.mu"),
        (("algorithms", 0, "estimator", "s"), 20.5, "algorithms[0].estimator.s"),
        (("algorithms", 0, "estimator", "variant"), 3, "algorithms[0].estimator.variant"),
        (("signal", "n"), "1000", "signal.n"),
        (("sensing", "count"), "100", "sensing.count"),
        (("signal", "snr_db"), "high", "signal.snr_db"),
        (("algorithms", 1, "tracker", "lam"), "0.9", "algorithms[1].tracker.lam"),
        (("tracking", "phase_windows", 1), "a", "tracking.phase_windows[1]"),
    ],
)
def test_config_rejects_a_mistyped_value(tmp_path, path, value, name):
    # used to load (trials: true) or to fail later without the path
    from sparselms.cli import main

    d = _set(spec_to_dict(build_exp4_tracking()), path, value)
    message = rf"{re.escape(name)} must be (int|float|str), got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        spec_from_dict(d)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(d))
    with pytest.raises(SystemExit) as stop:  # printed as one line, exit status 1
        main(["run", str(config), "--out", str(tmp_path)])
    assert re.fullmatch(rf"error: {re.escape(str(config))}: {message}", stop.value.code)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("algorithms", 0, "estimator", "mu"), 0,
         "algorithms[0].estimator: step size must satisfy 0 < mu < 2, got 0.0"),
        (("algorithms", 1, "tracker", "lam"), 1.5,
         "algorithms[1].tracker: forgetting factor must be in (0, 1]"),
        (("sensing", "count"), 0, "sensing: windows must be >= 1"),
        (("signal", "sines"), 0, "signal: need at least one sine"),
        # each of these used to load and run, with a silent wrong curve or a
        # traceback inside run_trial
        (("algorithms", 1, "tracker", "q_star"), math.nan,
         "algorithms[1].tracker: q_star must be finite and positive, got nan"),
        (("algorithms", 1, "tracker", "xi"), math.nan,
         "algorithms[1].tracker: xi must be finite and nonnegative, got nan"),
        (("algorithms", 1, "tracker", "xi"), math.inf,
         "algorithms[1].tracker: xi must be finite and nonnegative, got inf"),
        (("signal", "snr_db"), math.nan, "signal: snr_db must be a number or inf, got nan"),
        (("signal", "snr_db"), -math.inf, "signal: snr_db must be a number or inf, got -inf"),
        (("algorithms",), [], "algorithms must list at least one algorithm"),
        (("tracking", "extra_sines"), -1, "tracking: extra_sines must be >= 0, got -1"),
        (("tracking", "phase_windows", 0), 0, "tracking: phase_windows[0] must be >= 1, got 0"),
        # loaded, then failed mid-run inside numpy's SeedSequence
        (("seed",), -1, "seed must be >= 0, got -1"),
        # loaded, then died in _build_phases with OverflowError
        (("signal", "snr_db"), 4000.0,
         "signal: snr_db must give a finite, positive noise std at signal power 5.0, got 4000.0"),
        (("signal", "snr_db"), -4000.0,
         "signal: snr_db must give a finite, positive noise std at signal power 5.0, got -4000.0"),
        # loaded, then died in _build_phases at the second phase's noise std
        (("signal", "snr_db"), -3074.0,
         "signal.snr_db must give a finite, positive noise std at the second phase's signal"
         " power 10.0, got -3074.0"),
        # the CLI's --trials stops a 0 at parse time; a config file reaches
        # this check
        (("trials",), 0, "trials must be >= 1"),
    ],
)
def test_config_names_the_section_a_dataclass_rejects(tmp_path, path, value, message):
    from sparselms.cli import main

    d = _set(spec_to_dict(build_exp4_tracking()), path, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spec_from_dict(d)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(d))
    with pytest.raises(SystemExit) as stop:  # printed as one line, exit status 1
        main(["run", str(config), "--out", str(tmp_path)])
    assert stop.value.code == f"error: {config}: {message}"


@pytest.mark.parametrize(
    "build, path, value, message",
    [
        (build_exp1, ("algorithms", 0, "estimator", "mu"), 0.5,
         "algorithms[0].estimator.mu: step size must satisfy 0 < mu*N < 2,"
         " got mu=0.5, N=1000, mu*N=500.0"),
        (build_exp2, ("algorithms", 2, "estimator", "s"), 1001,
         "algorithms[2].estimator.s: need 1 <= s <= 1000, got s=1001"),
        (build_exp2, ("algorithms", 3, "tracker"), None,
         "algorithms[3].tracker: hard needs a fixed s or a tracker"),
    ],
    ids=["mu", "s", "tracker"],
)
def test_config_that_breaks_a_window_rule_fails_at_load(tmp_path, build, path, value, message):
    # each used to load, then fail with a traceback when its label came to run
    from sparselms.cli import main

    d = _set(spec_to_dict(build()), path, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spec_from_dict(d)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(d))
    with pytest.raises(SystemExit) as stop:  # printed as one line, exit status 1
        main(["run", str(config), "--out", str(tmp_path)])
    assert stop.value.code == f"error: {config}: {message}"
    assert not list(tmp_path.glob("*.csv"))


def test_a_registry_scale_that_breaks_a_window_rule_fails_before_any_run(tmp_path):
    # exp2 at N = 8 asks HARD-80 for s = 16; it used to run HARD-20 and HARD-40 first
    from sparselms.cli import main

    message = "algorithms[2].estimator.s: need 1 <= s <= 8, got s=16"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        get_experiment("exp2", n=8)
    with pytest.raises(SystemExit) as stop:
        main(["run", "exp2", "--scale", "8", "--trials", "1", "--out", str(tmp_path)])
    assert stop.value.code == f"error: {message}"
    assert not list(tmp_path.iterdir())


def test_config_rejects_an_empty_experiments_list(tmp_path):
    from sparselms.cli import main

    config = tmp_path / "empty.yaml"
    config.write_text("experiments: []\n")
    message = f"{config}: config key experiments must list at least one experiment"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        load_specs(config)
    with pytest.raises(SystemExit) as stop:
        main(["run", str(config), "--out", str(tmp_path)])
    assert stop.value.code == f"error: {message}"
    assert list(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize(
    "index, key, value",
    [
        (0, "epsilon", 2.0),   # za
        (0, "s", 20),          # za
        (1, "beta", 1.0),      # rza
        (2, "epsilon", 2.0),   # l0
        (3, "beta", 1.0),      # sza
        (4, "rho", 0.01),      # hard
        (4, "beta", 1.0),      # hard
        (5, "epsilon", 2.0),   # hard_l0
    ],
)
def test_config_rejects_a_parameter_the_variant_ignores(index, key, value):
    d = _set(spec_to_dict(build_exp3()), ("algorithms", index, "estimator", key), value)
    variant = d["algorithms"][index]["estimator"]["variant"]
    name = f"algorithms[{index}].estimator.{key}"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} is ignored by variant {variant}$"):
        spec_from_dict(d)


def test_config_rejects_a_tracker_without_a_budget():
    d = _set(spec_to_dict(build_exp2()), ("algorithms", 4, "tracker"), {})
    assert d["algorithms"][4]["estimator"]["variant"] == "lms"
    with pytest.raises(ValueError, match=r"^algorithms\[4\]\.tracker is ignored by variant lms$"):
        spec_from_dict(d)


@pytest.mark.parametrize("index", [0, 3])
def test_config_rejects_a_tracker_the_budget_never_reads(index):
    # a fixed s is read in place of the tracker's count
    build = build_exp2 if index == 0 else build_exp3
    d = spec_to_dict(build(n=64))
    d = _set(d, ("algorithms", index, "tracker"), {})
    variant = d["algorithms"][index]["estimator"]["variant"]
    assert d["algorithms"][index]["estimator"]["s"] > 0
    name = re.escape(f"algorithms[{index}].tracker")
    with pytest.raises(ValueError, match=rf"^{name} is ignored by variant {variant} with a fixed s$"):
        spec_from_dict(d)


def test_config_rejects_burn_in_under_lms():
    # lms has no penalty or projection for burn-in to delay
    d = _set(spec_to_dict(build_exp2(n=64)), ("algorithms", 4, "estimator", "burn_in"), 500)
    assert d["algorithms"][4]["estimator"]["variant"] == "lms"
    with pytest.raises(
        ValueError, match=r"^algorithms\[4\]\.estimator\.burn_in is ignored by variant lms$"
    ):
        spec_from_dict(d)


def test_config_in_the_verbose_export_format_loads_to_the_same_spec():
    # earlier exports wrote every estimator field and snr_db: "inf"
    verbose = {
        "name": "verbose",
        "signal": {"n": 64, "sines": 2, "snr_db": "inf"},
        "sensing": {"n": 64, "m": 32, "mode": "windowed", "count": 60},
        "trials": 1,
        "seed": 5,
        "algorithms": [
            {
                "label": "EST",
                "estimator": {"variant": "hard", "mu": 0.015625, "rho": 0.0, "beta": 0.0,
                              "epsilon": 1.0, "burn_in": 64},
                "tracker": {"lam": 0.98, "xi": 0.3125, "q_star": 0.05},
            },
            {
                "label": "L0",
                "estimator": {"variant": "l0", "mu": 0.015625, "rho": 0.001, "beta": 8.0,
                              "epsilon": 1.0, "burn_in": 0},
            },
        ],
        "tracking": {"phase_windows": [30, 30], "extra_sines": 2},
    }
    assert spec_from_dict(verbose) == ExperimentSpec(
        name="verbose",
        signal=SignalSpec(n=64, sines=2),
        sensing=SensingConfig(n=64, m=32, mode=Windowed(60)),
        algorithms=(
            AlgorithmSpec(
                "EST",
                EstimatorConfig("hard", mu=1 / 64, burn_in=64),
                tracker=TrackerParams(lam=0.98, xi=20 / 64, q_star=0.05),
            ),
            AlgorithmSpec("L0", EstimatorConfig("l0", mu=1 / 64, rho=0.001, beta=8.0)),
        ),
        trials=1,
        seed=5,
        tracking=TrackingSpec(phase_windows=(30, 30), extra_sines=2),
    )


def test_export_omits_fields_at_their_default():
    d = spec_to_dict(build_exp3())
    sections = [(SignalSpec, d["signal"])]
    for algo in d["algorithms"]:
        sections.append((EstimatorConfig, algo["estimator"]))
        if "tracker" in algo:
            sections.append((TrackerParams, algo["tracker"]))
    for cls, section in sections:
        for f in fields(cls):
            if f.name in section:
                assert section[f.name] != f.default, (cls.__name__, f.name)
    assert "tracking" not in d
    assert d["algorithms"][4] == {
        "label": "HARD-EST",
        "estimator": {"variant": "hard", "mu": 0.001, "burn_in": 200},
        "tracker": {"xi": 0.001},
    }


def test_load_specs_names_the_entry_of_a_list(tmp_path):
    d = spec_to_dict(build_exp2())
    del d["sensing"]["m"]
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump({"experiments": [spec_to_dict(build_exp2()), d]}))
    with pytest.raises(ValueError, match=r"experiments\[1\]: missing config key sensing\.m$"):
        load_specs(path)


def _without_sensing_count() -> str:
    d = spec_to_dict(build_exp2(trials=1))
    del d["sensing"]["count"]
    return yaml.safe_dump(d)


def _with_numeric_variant() -> str:
    d = spec_to_dict(build_exp2(trials=1))
    return yaml.safe_dump(_set(d, ("algorithms", 0, "estimator", "variant"), 3))


@pytest.mark.parametrize(
    "text, message",
    [
        ("name: x\n", "missing config key signal"),
        ("", "is empty"),
        (_without_sensing_count(), "missing config key sensing.count"),
        ("experiments: 5\n", "config key experiments must be a list"),
        ("a: [\n", "expected the node content"),
        (_with_numeric_variant(), "algorithms[0].estimator.variant must be str, got 3"),
    ],
    ids=["name-only", "empty", "no-sensing-count", "experiments-not-a-list", "bad-yaml",
         "numeric-variant"],
)
def test_cli_run_reports_a_config_error_on_one_line(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(sparselms.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparselms.cli", "run", str(path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert message in proc.stderr and str(path) in proc.stderr


def _cli(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(sparselms.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sparselms.cli", "run", *args, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["exp1", "--scale", "3"], "cannot place 2 sines on distinct bins in [1, 0] at n=3"),
        (["exp4-tracking", "--scale", "8"], "cannot place 2 + 2 sines"),
    ],
    ids=["registry-scale", "tracking-scale"],
)
def test_cli_run_reports_a_bad_override_on_one_line(tmp_path, args, message):
    proc = _cli(args, tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "args, option, value",
    [
        (["exp1", "--trials", "0"], "--trials", "0"),
        (["CONFIG", "--trials", "0"], "--trials", "0"),
        (["exp2", "--scale", "0"], "--scale", "0"),
        (["exp2", "--scale", "-4"], "--scale", "-4"),
        (["exp1", "--seed", "-1", "--trials", "1", "--scale", "64"], "--seed", "-1"),
        (["CONFIG", "--seed", "-1"], "--seed", "-1"),
    ],
    ids=["registry-trials", "config-trials", "scale-0", "scale-negative", "registry-seed",
         "config-seed"],
)
def test_cli_run_rejects_a_bad_option_when_it_parses(tmp_path, capsys, args, option, value):
    from sparselms.cli import main

    config = tmp_path / "exp1.yaml"
    save_spec(build_exp1(n=64), config)
    out = tmp_path / "res"
    with pytest.raises(SystemExit) as exit_:
        main(["run", *(str(config) if a == "CONFIG" else a for a in args), "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: need " in err and f"got {value}" in err
    assert not out.exists()  # nothing was built or run


def test_load_specs_names_a_stale_signal_seed(tmp_path):
    d = spec_to_dict(build_exp2())
    d["signal"]["seed"] = 0  # written by older exports; nothing read it
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ValueError, match=r"unknown config key signal\.seed"):
        load_specs(path)


def test_load_specs_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"config file {path} is empty")):
        load_specs(path)


def test_spec_rejects_window_length_mismatch():
    with pytest.raises(ValueError, match=r"signal\.n \(32\) must equal sensing\.n \(64\)"):
        tiny_spec(sensing=SensingConfig(n=64, m=16, mode=RepeatedPass(20)))


@pytest.mark.parametrize("n", [256, 1000, 4096])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_budgets_are_multiples_of_the_true_sparsity(name, n):
    built = get_experiment(name, n=n)
    for spec in built if isinstance(built, list) else [built]:
        for algo in spec.algorithms:
            if algo.estimator.s is not None:
                assert algo.estimator.s % (2 * spec.signal.sines) == 0, (spec.name, algo.label)


def test_export_matches_registry(tmp_path):
    from sparselms.cli import main

    for name in REGISTRY:
        path = tmp_path / f"{name}.yaml"
        assert main(["export", name, "--out", str(path)]) == 0
        built = get_experiment(name)
        assert load_specs(path) == (built if isinstance(built, list) else [built])


def test_exported_config_runs_byte_identical_to_the_registry(tmp_path):
    from sparselms.cli import main

    save_spec(get_experiment("exp2", n=64), tmp_path / "exp2.yaml")
    out = {"registry": tmp_path / "registry", "config": tmp_path / "config"}
    assert main(["run", "exp2", "--scale", "64", "--trials", "1",
                 "--out", str(out["registry"])]) == 0
    assert main(["run", str(tmp_path / "exp2.yaml"), "--trials", "1",
                 "--out", str(out["config"])]) == 0
    for name in ("exp2_curves.csv", "exp2_summary.csv"):
        assert (out["config"] / name).read_bytes() == (out["registry"] / name).read_bytes()


def test_save_and_load_round_trip(tmp_path):
    spec = tiny_spec()
    save_spec(spec, tmp_path / "tiny.yaml")
    assert load_specs(tmp_path / "tiny.yaml") == [spec]


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        tiny_spec(
            algorithms=(
                AlgorithmSpec("A", EstimatorConfig("lms", mu=0.01)),
                AlgorithmSpec("A", EstimatorConfig("lms", mu=0.02)),
            )
        )


# -- CLI ------------------------------------------------------------------------


def test_cli_list_and_run(tmp_path, capsys):
    from sparselms.cli import main

    assert main(["list"]) == 0
    captured = capsys.readouterr()
    assert "exp1" in captured.out

    spec = tiny_spec(trials=1)
    save_spec(spec, tmp_path / "tiny.yaml")
    assert main(["run", str(tmp_path / "tiny.yaml"), "--out", str(tmp_path / "res")]) == 0
    # the wall time and the steps per second of all labels' trials
    head = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"tiny: 1 trial\(s\), \d+\.\ds, \d+ steps/s", head), head
    assert (tmp_path / "res" / "tiny_curves.csv").exists()
    assert (tmp_path / "res" / "tiny_summary.csv").exists()


def test_cli_list_prints_each_builder_docstring(capsys):
    from sparselms.cli import main

    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(REGISTRY)
    for line, (name, build) in zip(lines, REGISTRY.items()):
        assert line.split(None, 1) == [name, build.__doc__.splitlines()[0]]


def test_cli_multi_spec_writes_sweep_summary(tmp_path):
    from sparselms.cli import main
    from sparselms.experiments import save_specs

    specs = [
        tiny_spec(trials=1, name="sweep-m8", sensing=SensingConfig(n=32, m=8, mode=RepeatedPass(20))),
        tiny_spec(trials=1, name="sweep-m16"),
    ]
    save_specs(specs, tmp_path / "sweep.yaml")
    assert main(["run", str(tmp_path / "sweep.yaml"), "--out", str(tmp_path / "res")]) == 0
    summary = (tmp_path / "res" / "msweep_summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,label,m,steady_rmse_db"
    assert len(summary) == 1 + 2 * len(specs[0].algorithms)


def test_config_rejects_a_repeated_experiment_name(tmp_path):
    # both experiments used to run, and the second's CSVs overwrote the first's
    from sparselms.cli import main
    from sparselms.experiments import save_specs

    config = tmp_path / "dup.yaml"
    names = ["sweep-a", "sweep-b", "sweep-a"]
    save_specs([tiny_spec(trials=1, name=name) for name in names], config)
    message = f"{config}: experiments[2].name 'sweep-a' repeats experiments[0].name"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        load_specs(config)
    with pytest.raises(SystemExit) as stop:
        main(["run", str(config), "--out", str(tmp_path / "res")])
    assert stop.value.code == f"error: {message}"
    assert list(tmp_path.iterdir()) == [config]  # nothing written


def test_cli_verify_and_oracle_small(capsys):
    from sparselms.cli import main

    assert main(["verify", "--draws", "500"]) == 0
    assert main(["oracle", "--draws", "500"]) == 0
    out = capsys.readouterr().out
    timed = r"  \d+\.\d\ds, \d+ draws/s$"
    for head in ("theorem2: 500 draws", "theorem3: 500 draws", "theorem2-tightness: 1 draws",
                 "hard-threshold-oracle: 500 draws", "sensing-identity: 63 draws",
                 "spectrum-roundtrip: 3 draws"):
        assert re.search(rf"^{head}, 0 failures \[ok\]{timed}", out, re.M), out
