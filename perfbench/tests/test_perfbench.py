"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``.

The smoke runs use the registry builders at N = 32 and an N-sweep of {32},
so the whole module takes well under a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import layertrace
import run
import speedprobe
import workloads

ROOT = Path(__file__).resolve().parents[2]
PROGRAM = run.load_program()
SMOKE_N = 32
SMOKE_SWEEP = (32,)


def _smoke(name, trace):
    return run.measure(PROGRAM, name, 1, 0.0, trace, SMOKE_N, SMOKE_SWEEP)[0]


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.per_layer_units()


def test_labels_are_those_of_the_registry_experiments():
    labels = {
        algo.label
        for wl in workloads.WORKLOADS.values()
        if wl.experiment is not None
        for algo in PROGRAM.experiments.get_experiment(wl.experiment).algorithms
    }
    assert labels == set(workloads.LABELS)
    assert set(workloads.REFERENCE_DB) == {
        name for name, wl in workloads.WORKLOADS.items() if wl.experiment is not None
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name):
    result = _smoke(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name):
    result = _smoke(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(workloads.per_layer_units(SMOKE_SWEEP))
    layertrace.assert_no_wrappers(PROGRAM)
    experiment = workloads.WORKLOADS[name].experiment is not None
    assert (metrics["estimators.steps"] > 0) == experiment
    assert metrics["sensing.samples"] == metrics["estimators.steps"]
    assert (metrics["verification.draw_us.theorem2"] > 0) == (not experiment)
    assert metrics["sparse_ops.threshold_calls"] > 0
    assert (metrics["sparse_ops.penalty_calls"] > 0) == (name == "exp3-shrinkage")
    assert metrics["estimators.step_us.N32.HARD-L0"] > 0


def test_nan_in_a_trajectory_counts_as_one_failed_check(tmp_path):
    harness = PROGRAM.harness
    spec = PROGRAM.experiments.get_experiment("exp2", trials=1, n=SMOKE_N, seed=3)
    result = harness.run_experiment(spec)
    curves, summary = tmp_path / "curves.csv", tmp_path / "summary.csv"
    harness.write_curves_csv(result, curves)
    harness.write_summary_csv(result, summary)
    clean = workloads.check_experiment(result, curves, summary, False, None)
    result.records["HARD-40"][0].rmse_lin_trajectory[7] = np.nan
    dirty = workloads.check_experiment(result, curves, summary, False, None)
    assert clean.failed == 0
    assert dirty.attempted == clean.attempted
    assert dirty.failed == 1 and "HARD-40 trial 0" in dirty.messages[0]


def test_speed_probe_excludes_its_own_time_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe(period_s=0.01) as probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1, c1 = time.perf_counter(), probe.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 5
    raw, norm = c1[0] - c0[0], c1[1] - c0[1]
    probed = sum(probe.durations[1:])  # the first probe ran before c0
    assert raw == pytest.approx(t1 - t0 - probed, rel=0.05)
    scales = [probe.reference_s / d for d in probe.durations]
    assert min(scales) * 0.99 <= norm / raw <= max(scales) * 1.01


def test_setup_is_normalised_by_the_reference_processes_around_it(monkeypatch):
    calls = []

    def fake(args):
        calls.append(args)
        return 0.2 if args == run.REFERENCE_SETUP else 0.3

    monkeypatch.setattr(run, "time_to_ready", fake)
    setup_s, raw = run.probe_setup("exp2", SMOKE_N, 1)
    assert raw == 0.3 and setup_s == pytest.approx(1.5 * run.REFERENCE_SETUP_S)
    assert calls[::2] == [run.REFERENCE_SETUP] * (run.SETUP_PROBES + 1)
    assert len(calls) == 2 * run.SETUP_PROBES + 1


def test_untraced_run_refuses_an_installed_wrapper():
    with layertrace.Tracer().installed(PROGRAM):
        with pytest.raises(RuntimeError, match="still installed"):
            _smoke("verify-theorems", trace=False)
    layertrace.assert_no_wrappers(PROGRAM)


def test_count_drift_between_traced_passes_is_a_failure(monkeypatch):
    real = workloads.exact_counts
    calls = []

    def drifting(tracer):
        calls.append(tracer)
        counts = real(tracer)
        counts["sparse_ops.threshold_calls"] += len(calls)
        return counts

    monkeypatch.setattr(workloads, "exact_counts", drifting)
    result, lines = run.measure(PROGRAM, "verify-theorems", 1, 0.0, True, SMOKE_N, SMOKE_SWEEP)
    assert not result["correct"] and result["failed"] == 1
    assert any("drifted" in line for line in lines)


def _cli(cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-theorems",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_result_as_its_last_line():
    proc = _cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert proc.stdout.startswith("provenance ")


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
