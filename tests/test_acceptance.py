"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Margins that were left open for calibration were fixed by a single pilot run
and are frozen here: experiment 1 uses the 15 dB LMS-vs-thresholded margin
(pilot: 20.6 dB) and experiment 2 uses the 10 dB plateau margin between the
fixed budget 20 and the online-estimated budget (pilot: 18.9 dB).
"""

import time

import numpy as np

from sparselms.experiments import get_experiment
from sparselms.harness import (
    _build_phases,
    bootstrap_diff_ci,
    rmse_db,
    run_experiment,
    run_trial,
    time_to_reach,
)
from sparselms.sparse_ops import support
from sparselms.verification import (
    hard_threshold_oracle_suite,
    sensing_identity_suite,
    sza_bias_suite,
    theorem2_suite,
    theorem3_suite,
    tightness_suite,
)


from conftest import acceptance_lines


def _report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    acceptance_lines.append(line)


def test_criterion_1_theorem2_property_suite():
    t0 = time.perf_counter()
    suite = theorem2_suite(draws=100_000, seed=7)
    near = tightness_suite(eps=1e-6, seed=9)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and near.passed and elapsed < 30.0
    _report("1 (exact-recovery suite)", ok, elapsed,
            f"{suite.draws} draws, {suite.failures} failures; near-violation breaks as expected")
    assert suite.passed, str(suite)
    assert near.passed, str(near)
    assert elapsed < 30.0


def test_criterion_2_theorem3_property_suite():
    t0 = time.perf_counter()
    suite = theorem3_suite(draws=100_000, seed=8)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 30.0
    _report("2 (relaxed-recovery suite)", ok, elapsed,
            f"{suite.draws} draws, {suite.failures} failures")
    assert suite.passed, str(suite)
    assert elapsed < 30.0


def test_criterion_3_sensing_identity():
    t0 = time.perf_counter()
    suite = sensing_identity_suite(n_max=64, tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 5.0
    _report("3 (second-moment identity)", ok, elapsed, suite.notes[-1])
    assert suite.passed, str(suite)
    assert elapsed < 5.0


def test_criterion_4_hard_threshold_oracle():
    t0 = time.perf_counter()
    suite = hard_threshold_oracle_suite(draws=10_000, seed=11)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 5.0
    _report("4 (top-k oracle agreement)", ok, elapsed,
            f"{suite.draws} vectors, {suite.failures} mismatches")
    assert suite.passed, str(suite)
    assert elapsed < 5.0


def test_criterion_5_experiment1_support_and_margin():
    t0 = time.perf_counter()
    spec = get_experiment("exp1")
    hard = run_trial(spec, spec.algorithms[0], 0)
    lms = run_trial(spec, spec.algorithms[1], 0)
    truth = support(_build_phases(spec, 0)[0].w_true)
    margin = lms.rmse_db_trajectory[-1] - hard.rmse_db_trajectory[-1]
    elapsed = time.perf_counter() - t0
    ok = hard.final_support == truth and margin >= 15.0 and elapsed < 10.0
    _report("5 (experiment 1)", ok, elapsed,
            f"support {'exact' if hard.final_support == truth else 'WRONG'}, "
            f"LMS margin {margin:.1f} dB")
    assert hard.final_support == truth
    assert len(hard.final_support) == 20
    assert lms.rmse_db_trajectory[-1] >= -10.0  # plain LMS cannot find the sparse solution
    assert margin >= 15.0
    assert elapsed < 10.0


def test_criterion_6_experiment2_budget_ordering():
    t0 = time.perf_counter()
    res = run_experiment(get_experiment("exp2", trials=20))
    elapsed = time.perf_counter() - t0
    ss = {label: res.steady_state_db(label, tail=2000) for label in res.curves_db}
    plateau_margin = ss["HARD-20"] - ss["HARD-EST"]
    ordered = (
        max(ss["HARD-EST"], ss["HARD-40"], ss["HARD-80"]) < ss["HARD-20"] < ss["LMS"]
    )
    ok = ordered and plateau_margin >= 10.0 and elapsed < 600.0
    _report("6 (experiment 2)", ok, elapsed,
            "steady dB " + ", ".join(f"{k}={v:.1f}" for k, v in ss.items())
            + f"; plateau margin {plateau_margin:.1f} dB")
    assert ordered, ss
    assert plateau_margin >= 10.0
    assert elapsed < 600.0


def test_criterion_7_experiment3_convergence_speed():
    t0 = time.perf_counter()
    res = run_experiment(get_experiment("exp3", trials=20))
    elapsed = time.perf_counter() - t0

    reach = {}
    for label in ("SZA", "HARD-L0", "L0", "HARD-EST", "RZA"):
        times = [time_to_reach(r.rmse_lin_trajectory, -15.0) for r in res.records[label]]
        assert all(t is not None for t in times), f"{label} failed to reach -15 dB"
        reach[label] = np.array(times, dtype=float)

    za_times = [time_to_reach(r.rmse_lin_trajectory, -15.0) for r in res.records["ZA"]]
    za_never = all(t is None for t in za_times)

    order = ("SZA", "HARD-L0", "L0", "HARD-EST", "RZA")
    ordered = True
    ci_ok = True
    detail = []
    for fast, slow in zip(order, order[1:]):
        diff = reach[slow].mean() - reach[fast].mean()
        lo, hi = bootstrap_diff_ci(reach[fast], reach[slow], seed=42)
        ordered = ordered and diff >= 0.0
        ci_ok = ci_ok and hi >= 0.0  # 95% CI must not reverse the ordering
        detail.append(f"{fast}<{slow}: d={diff:.0f} CI[{lo:.0f},{hi:.0f}]")
    means = ", ".join(f"{k}={reach[k].mean():.0f}" for k in order)
    ok = ordered and ci_ok and za_never and elapsed < 900.0
    _report("7 (experiment 3)", ok, elapsed, f"mean reach {means}; ZA never reaches")
    assert ordered, detail
    assert ci_ok, detail
    assert za_never
    assert elapsed < 900.0


def test_criterion_8_tracking_experiment():
    t0 = time.perf_counter()
    spec = get_experiment("exp4-tracking")
    res = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    m = spec.sensing.m

    est = res.records["HARD-EST"][0]
    s_tail = float(np.nanmean(est.s_trajectory[-50 * m :]))

    simple = res.records["HARD-EST-SIMPLE"][0]
    post_db = rmse_db(float(np.mean(simple.rmse_lin_trajectory[-50 * m :])))
    s_simple = float(np.nanmean(simple.s_trajectory[-50 * m :]))

    ok = 36.0 <= s_tail <= 44.0 and abs(post_db - (-3.0)) <= 2.0 and elapsed < 300.0
    _report("8 (tracking)", ok, elapsed,
            f"estimated s tail {s_tail:.1f}; simple stuck at {s_simple:.1f}, "
            f"post-change {post_db:.2f} dB")
    assert 36.0 <= s_tail <= 44.0
    assert abs(post_db - (-3.0)) <= 2.0
    assert elapsed < 300.0


def test_criterion_9_sza_bias_bound():
    t0 = time.perf_counter()
    suite = sza_bias_suite(realizations=500, n=32, seed=17)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 120.0
    _report("9 (selective-attraction bias)", ok, elapsed, suite.notes[-1])
    assert suite.passed, str(suite)
    assert elapsed < 120.0
