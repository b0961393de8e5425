"""The benchmark's workloads, their correctness checks and the layer metrics.

Every workload calls the same public functions ``sparselms run`` and
``sparselms verify``/``oracle`` call.  One *unit* is a fixed amount of work:
one ``run_experiment`` of the registry builder at ``trials`` trials plus its
two CSV writes, or one pass of the three verification suites.  Unit ``i`` of a
run at workload seed ``s`` uses experiment seed ``1000*s + i`` (suite seeds
``1000*s + 3*i + k``), so the seed alone fixes every input.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from layertrace import SUITES
from speedprobe import wall_clock

SHIPPED_N = 1000
DEFAULT_SEED = 0

# Fixed before any measurement.  The reference tolerance admits the
# tie-breaking drift a support-stable fast path is expected to cause (about
# 0.15 dB on HARD-80) and rejects any change of regime.  The LMS floor
# tolerance is about six times the per-trial spread of the LMS steady state
# around the analytic floor, and excludes 0 dB, the value of an estimator
# that learns nothing.
REFERENCE_TOL_DB = 0.5
LMS_FLOOR_TOL_DB = 0.6

# Steady-state r-MSE (dB) per label of unit 0 at DEFAULT_SEED and SHIPPED_N.
REFERENCE_DB = {
    "exp2-budget": {
        "HARD-20": -9.496, "HARD-40": -11.814, "HARD-80": -9.84,
        "HARD-EST": -10.863, "LMS": -0.915,
    },
    "exp3-shrinkage": {
        "ZA": -8.341, "RZA": -28.391, "L0": -28.4,
        "SZA": -28.405, "HARD-EST": -28.516, "HARD-L0": -28.515,
    },
    "exp4-tracking": {"HARD-EST": -37.53, "HARD-EST-SIMPLE": -2.967},
}

SUITE_DRAWS = 4000  # per suite and unit; ~1.3 s of verification per unit

# Every label the three registry experiments use, for the per-label metrics.
LABELS = (
    "HARD-20", "HARD-40", "HARD-80", "HARD-EST", "LMS",
    "ZA", "RZA", "L0", "SZA", "HARD-L0", "HARD-EST-SIMPLE",
)

# N-sweep: (metric variant, registry experiment, label of its configuration).
SWEEP = (
    ("LMS", "exp2", "LMS"),
    ("HARD-s", "exp2", "HARD-20"),
    ("HARD-EST", "exp2", "HARD-EST"),
    ("ZA", "exp3", "ZA"),
    ("RZA", "exp3", "RZA"),
    ("L0", "exp3", "L0"),
    ("SZA", "exp3", "SZA"),
    ("HARD-L0", "exp3", "HARD-L0"),
)
SWEEP_NS = (256, 1000, 4096)
SWEEP_STEPS = 1000  # timed steps after burn-in, per variant and N


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str | None  # registry name; None runs the verification suites
    trials: int = 0
    lms_floor: bool = False  # check the LMS steady state against 10 log10(1 - M/N)
    kernel: str = "lms"  # the SpeedProbe kernel that resembles the workload's work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exp2-budget", "exp2", trials=2, lms_floor=True),
        Workload("exp3-shrinkage", "exp3", trials=1),
        Workload("exp4-tracking", "exp4-tracking", trials=1),
        Workload("verify-theorems", None, kernel="suite"),
    )
}


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


@dataclass
class Unit:
    wall_s: float  # run_experiment plus both CSV writes, or the three suites
    ops: int  # Estimator.step calls, or suite draws
    ops_s: float  # seconds of run_experiment, or of the suites
    csv_bytes: int
    checks: Checks
    norm_wall_s: float  # wall_s and ops_s on the clock of a SpeedProbe
    norm_ops_s: float


def prepare(program, wl: Workload, seed: int, n: int) -> tuple[float, int]:
    """Set-up before the first unit: spec build and the first fourier_rows(n).

    Returns the table's build seconds and computed bytes (0, 0 without one).
    """
    if wl.experiment is None:
        return 0.0, 0
    program.experiments.get_experiment(wl.experiment, trials=wl.trials, n=n, seed=seed)
    t0 = time.perf_counter()
    rows = program.sensing.fourier_rows(n)
    return time.perf_counter() - t0, rows.nbytes


def run_unit(program, wl: Workload, seed: int, index: int, n: int, out_dir: Path,
             clock=wall_clock) -> Unit:
    """One unit, timed by ``clock``, which reads (wall, normalised) seconds."""
    if wl.experiment is None:
        return _verify_unit(program, seed, index, clock)
    harness = program.harness
    spec = program.experiments.get_experiment(
        wl.experiment, trials=wl.trials, n=n, seed=1000 * seed + index
    )
    curves = out_dir / f"{spec.name}_curves.csv"
    summary = out_dir / f"{spec.name}_summary.csv"
    t0 = clock()
    result = harness.run_experiment(spec)
    t1 = clock()
    harness.write_curves_csv(result, curves)
    harness.write_summary_csv(result, summary)
    t2 = clock()
    reference = None
    if seed == DEFAULT_SEED and index == 0 and n == SHIPPED_N:
        reference = REFERENCE_DB[wl.name]
    checks = check_experiment(result, curves, summary, wl.lms_floor, reference)
    steps = sum(r.rmse_lin_trajectory.size for recs in result.records.values() for r in recs)
    size = curves.stat().st_size + summary.stat().st_size
    return Unit(t2[0] - t0[0], steps, t1[0] - t0[0], size, checks,
                t2[1] - t0[1], t1[1] - t0[1])


def _verify_unit(program, seed: int, index: int, clock) -> Unit:
    ver = program.verification
    base = 1000 * seed + 3 * index
    t0 = clock()
    suites = [
        ver.theorem2_suite(SUITE_DRAWS, base),
        ver.theorem3_suite(SUITE_DRAWS, base + 1),
        ver.hard_threshold_oracle_suite(SUITE_DRAWS, base + 2),
    ]
    t1 = clock()
    wall, norm = t1[0] - t0[0], t1[1] - t0[1]
    checks = Checks()
    for suite in suites:
        # scored per draw; a draw failing two ways counts once
        checks.attempted += suite.draws
        checks.failed += min(suite.failures, suite.draws)
        if not suite.passed:
            checks.messages.append(str(suite))
    return Unit(wall, sum(s.draws for s in suites), wall, 0, checks, norm, norm)


def _tail_db(rmse_lin: np.ndarray) -> float:
    """Steady state as ExperimentResult.steady_state_db defines it, for one trial."""
    tail = max(1, rmse_lin.size // 10)
    return float(10.0 * np.log10(rmse_lin[-tail:].mean()))


def check_experiment(result, curves: Path, summary: Path, lms_floor: bool, reference) -> Checks:
    """Correctness of one unit, scored per (label, trial) and per label."""
    checks = Checks()
    for label, recs in result.records.items():
        for rec in recs:
            checks.expect(
                bool(np.isfinite(rec.rmse_lin_trajectory).all()),
                f"{label} trial {rec.seed[1]}: non-finite r-MSE trajectory",
            )
    with open(curves, newline="") as f:
        curve_rows = Counter(row[1] for row in itertools.islice(csv.reader(f), 1, None))
    with open(summary, newline="") as f:
        summary_rows = Counter(row[1] for row in itertools.islice(csv.reader(f), 1, None))
    for label, db in result.curves_db.items():
        checks.expect(
            curve_rows[label] == db.size and summary_rows[label] == 1,
            f"{label}: {curve_rows[label]} curve rows (expected {db.size}), "
            f"{summary_rows[label]} summary rows (expected 1)",
        )
    if lms_floor:
        sens = result.spec.sensing
        floor = 10.0 * math.log10(1.0 - sens.m / sens.n)
        for rec in result.records["LMS"]:
            ss = _tail_db(rec.rmse_lin_trajectory)
            checks.expect(
                abs(ss - floor) <= LMS_FLOOR_TOL_DB,
                f"LMS trial {rec.seed[1]}: steady state {ss:.3f} dB, floor {floor:.3f} dB",
            )
    for label, ref in (reference or {}).items():
        ss = result.steady_state_db(label)
        checks.expect(
            abs(ss - ref) <= REFERENCE_TOL_DB,
            f"{label}: steady state {ss:.3f} dB, reference {ref:.3f} dB",
        )
    return checks


# -- traced run ---------------------------------------------------------------


def _span(tracer, name) -> tuple[int, int, int]:
    """(calls, inclusive ns, self ns) of a span name; zeros if it never ran."""
    return tuple(tracer.spans.get(name, (0, 0, 0)))


def exact_counts(tracer) -> dict[str, int]:
    """Counts that must repeat exactly across traced passes at one seed."""
    return {
        "estimators.steps": _span(tracer, "estimators.step")[0],
        "sensing.samples": _span(tracer, "sensing.sample")[0],
        "sparse_ops.threshold_calls": _span(tracer, "sparse_ops.threshold")[0],
        "tracker.calls": _span(tracer, "tracker.update")[0] + _span(tracer, "tracker.query")[0],
        "support_stable": tracer.counts["support_stable"],
        "support_compared": tracer.counts["support_compared"],
    }


def per_layer_units(sweep_ns=SWEEP_NS) -> dict[str, str]:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {
        "sensing.sample_us": "us",
        "sensing.samples": "count",
        "sensing.table_build_s": "s",
        "sensing.table_mb": "MB",
        "signals.trial_build_ms": "ms",
    }
    for label in LABELS:
        units[f"estimators.step_us.{label}"] = "us"
        units[f"estimators.step_us_p99.{label}"] = "us"
        units[f"estimators.step_self_us.{label}"] = "us"
    units.update({
        "estimators.steps": "count",
        "sparse_ops.threshold_us": "us",
        "sparse_ops.threshold_calls": "count",
        "sparse_ops.penalty_us": "us",
        "sparse_ops.penalty_calls": "count",
        "sparse_ops.support_stable_frac": "frac",
        "tracker.update_us": "us",
        "tracker.query_us": "us",
        "tracker.calls": "count",
        "tracker.budget_change_frac": "frac",
        "harness.loop_us": "us",
        "harness.aggregate_s": "s",
        "harness.csv_s": "s",
        "harness.csv_mb": "MB",
        "experiments.build_ms": "ms",
    })
    for _, suite in SUITES:
        units[f"verification.draw_us.{suite}"] = "us"
    units["verification.check_us"] = "us"
    units["trace.overhead_frac"] = "frac"
    for n in sweep_ns:
        units[f"sensing.table_mb.N{n}"] = "MB"
        units[f"sensing.table_build_s.N{n}"] = "s"
        for variant, _, _ in SWEEP:
            units[f"estimators.step_us.N{n}.{variant}"] = "us"
    return units


def layer_values(tracer, unit: Unit, table_build_s: float, table_bytes: int,
                 overhead_frac: float) -> dict[str, float]:
    """Per-layer values of one traced unit.

    Times per call are means of self time, except the per-label step figures,
    which are the median and 99th percentile over every step of the label.  A
    metric whose layer does no work on the workload reads 0.
    """

    def span(name):
        return _span(tracer, name)

    def frac(num, den):
        return num / den if den else 0.0

    def self_us(name):
        calls, _, self_ns = span(name)
        return frac(self_ns / 1e3, calls)

    counts = exact_counts(tracer)
    steps = counts["estimators.steps"]
    trials = span("harness.trial")[0]
    values = {
        "sensing.sample_us": self_us("sensing.sample"),
        "sensing.samples": counts["sensing.samples"],
        "sensing.table_build_s": table_build_s,
        "sensing.table_mb": table_bytes / 1e6,
        "signals.trial_build_ms": frac(span("signals.trial_build")[2] / 1e6, trials),
    }
    for label in LABELS:
        incl, selfs = tracer.steps.get(label, ([0], [0]))
        p50, p99 = np.percentile(incl, [50, 99]) / 1e3
        values[f"estimators.step_us.{label}"] = float(p50)
        values[f"estimators.step_us_p99.{label}"] = float(p99)
        values[f"estimators.step_self_us.{label}"] = float(np.median(selfs)) / 1e3
    values.update({
        "estimators.steps": steps,
        "sparse_ops.threshold_us": self_us("sparse_ops.threshold"),
        "sparse_ops.threshold_calls": counts["sparse_ops.threshold_calls"],
        "sparse_ops.penalty_us": self_us("sparse_ops.penalty"),
        "sparse_ops.penalty_calls": span("sparse_ops.penalty")[0],
        "sparse_ops.support_stable_frac": frac(
            counts["support_stable"], counts["support_compared"]
        ),
        "tracker.update_us": self_us("tracker.update"),
        "tracker.query_us": self_us("tracker.query"),
        "tracker.calls": counts["tracker.calls"],
        "tracker.budget_change_frac": frac(
            tracer.counts["budget_changed"], tracer.counts["budget_compared"]
        ),
        "harness.loop_us": frac(span("harness.trial")[2] / 1e3, steps),
        "harness.aggregate_s": span("harness.experiment")[2] / 1e9,
        "harness.csv_s": span("harness.csv")[1] / 1e9,
        "harness.csv_mb": unit.csv_bytes / 1e6,
        "experiments.build_ms": frac(span("experiments.build")[1] / 1e6,
                                     span("experiments.build")[0]),
    })
    for _, suite in SUITES:
        incl_ns = span(f"verification.suite.{suite}")[1]
        values[f"verification.draw_us.{suite}"] = frac(
            incl_ns / 1e3, tracer.counts[f"draws.{suite}"]
        )
    values["verification.check_us"] = self_us("verification.check")
    values["trace.overhead_frac"] = overhead_frac
    return values


def n_sweep(program, seed: int, ns=SWEEP_NS, steps: int = SWEEP_STEPS) -> dict[str, float]:
    """Median inclusive Estimator.step latency per variant and N, driving the
    step directly over make_stream, plus the fourier_rows table per N."""
    sensing = program.sensing
    values = {}
    sensing.fourier_rows.cache_clear()
    for n in ns:
        t0 = time.perf_counter()
        rows = sensing.fourier_rows(n)
        values[f"sensing.table_build_s.N{n}"] = time.perf_counter() - t0
        values[f"sensing.table_mb.N{n}"] = rows.nbytes / 1e6
        del rows
        specs = {
            name: program.experiments.get_experiment(name, trials=1, n=n, seed=seed)
            for name in ("exp2", "exp3")
        }
        for variant, name, label in SWEEP:
            spec = specs[name]
            algo = next(a for a in spec.algorithms if a.label == label)
            values[f"estimators.step_us.N{n}.{variant}"] = _median_step_us(
                program, spec, algo, steps
            )
        sensing.fourier_rows.cache_clear()  # N = 4096 holds 268 MB
    return values


def _median_step_us(program, spec, algo, steps: int) -> float:
    sig = program.signals.resolve_bins(spec.signal, np.random.default_rng(spec.seed))
    sigma = program.signals.noise_std(program.signals.signal_power(sig), sig.snr_db)
    z = program.signals.multisine(sig)
    est = program.estimators.Estimator(algo.estimator, sig.n, algo.tracker)
    stream = program.sensing.make_stream(
        replace(spec.sensing, seed=spec.seed), itertools.repeat(z), sigma
    )
    burn = algo.estimator.burn_in
    clock = time.perf_counter_ns
    times = []
    for i, sample in enumerate(itertools.islice(stream, burn + steps)):
        t0 = clock()
        est.step(sample)
        dt = clock() - t0
        if i >= burn:
            times.append(dt)
    return statistics.median(times) / 1e3
