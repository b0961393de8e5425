"""sparselms benchmark: four Monte-Carlo workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exp2-budget --seed 0 --seconds 20 --trace 0

The program is imported from this checkout's ``src/``; without it the
benchmark exits with code 2 and prints no result.

``--trace 0`` repeats units of the workload (see workloads.py), with no
wrapper installed, until ``--seconds`` have been measured.  A SpeedProbe
(speedprobe.py) times a reference kernel of the workload's kind of work
every 50 ms of program time, and the unit times are rescaled by the host's
speed at that moment, so that the phases in which a shared host runs faster
or slower do not show as changes of the program.  It reports:

    norm_wall_s      s    median unit time, normalised: run_experiment plus
                          the curve and summary CSV writes, or the three
                          verification suites
    norm_ops_per_s   1/s  median over units of Estimator.step calls per
                          normalised second of run_experiment (steps_per_s),
                          or suite draws per second (draws_per_s) on
                          verify-theorems
    setup_s          s    median over SETUP_PROBES fresh processes of the time
                          from spawn until imports, spec build and first
                          fourier_rows(N) are done, each over the mean time of
                          the reference processes (interpreter start and numpy
                          import) spawned just before and after it, times
                          REFERENCE_SETUP_S: the set-up time on a host where
                          the reference takes REFERENCE_SETUP_S
    peak_rss_mb      MB   peak resident set of this process (ru_maxrss)

The same figures in plain wall time (wall_s, steps_per_s or draws_per_s,
raw setup) are printed above the result line; they are not metrics, because
a shared host moves them by more than any bound a benchmark could hold.

``--trace 1`` runs a fixed amount of work instead: unit 0 traced, untraced,
and traced again, then the N-sweep.  It reports the per-layer metrics
(workloads.per_layer_units) from the first traced pass, checks that the
exact counts of both traced passes agree, and reports
``trace.overhead_frac``, the traced over the untraced unit time, minus 1.

Correctness checks (failed_frac = failed / attempted) are scored per
(label, trial) and per suite draw; the last line of standard output is the
result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layertrace
import speedprobe
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 7
# A process with the part of set-up that is not the program's: interpreter
# start and the numpy import.  Spawned around each set-up probe, it follows the
# speed of the host's process start, file cache and imports, which the
# SpeedProbe kernel does not.
REFERENCE_SETUP = ("-c", "import numpy; print('ready', flush=True)")
REFERENCE_SETUP_S = 0.17  # nominal reference time; about its median on a 2-vCPU VM

END_TO_END_UNITS = {
    "norm_wall_s": "s", "norm_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import sparselms from this checkout's src/, never from an installed copy."""
    init = SRC / "sparselms" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program to benchmark: {init} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparselms
    import sparselms.experiments  # noqa: F401  (not imported by the package)
    import sparselms.verification  # noqa: F401

    if Path(sparselms.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"sparselms was imported from {sparselms.__file__}, not {init}")
    return sparselms


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }


def time_to_ready(args) -> float:
    """Wall seconds from spawning ``python3 *args`` until it prints ``ready``."""
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}): {' '.join(cmd)}")
    return elapsed


def probe_setup(experiment: str | None, n: int, seed: int) -> tuple[float, float]:
    """(normalised setup_s, raw median seconds) over SETUP_PROBES fresh set-ups.

    Reference processes and set-ups alternate, starting and ending with a
    reference; each set-up is divided by the mean of its two neighbours.
    """
    args = (str(PROBE), experiment or "-", str(n), str(seed))
    refs = [time_to_ready(REFERENCE_SETUP)]
    raw, ratios = [], []
    for _ in range(SETUP_PROBES):
        raw.append(time_to_ready(args))
        refs.append(time_to_ready(REFERENCE_SETUP))
        ratios.append(raw[-1] / ((refs[-2] + refs[-1]) / 2))
    return statistics.median(ratios) * REFERENCE_SETUP_S, statistics.median(raw)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def measure(program, workload: str, seed: int, seconds: float, trace: bool,
            n: int, sweep_ns) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns the result object and report lines."""
    wl = workloads.WORKLOADS[workload]
    out_dir = OUT / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _traced(program, wl, seed, n, sweep_ns, out_dir)
        return _untraced(program, wl, seed, seconds, n, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it


def _untraced(program, wl, seed, seconds, n, out_dir):
    layertrace.assert_no_wrappers(program)
    setup_s, raw_setup_s = probe_setup(wl.experiment, n, seed)
    workloads.prepare(program, wl, seed, n)
    units = []
    with speedprobe.SpeedProbe(wl.kernel) as probe:
        t_start = time.perf_counter()
        while not units or time.perf_counter() - t_start < seconds:
            units.append(workloads.run_unit(program, wl, seed, len(units), n, out_dir,
                                            probe.clock))
        elapsed = time.perf_counter() - t_start
    layertrace.assert_no_wrappers(program)
    checks = workloads.Checks()
    for unit in units:
        checks.add(unit.checks)
    values = {
        "norm_wall_s": statistics.median(u.norm_wall_s for u in units),
        "norm_ops_per_s": statistics.median(u.ops / u.norm_ops_s for u in units),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    ops = "draws_per_s" if wl.experiment is None else "steps_per_s"
    lines = [
        f"{len(units)} unit(s) in {elapsed:.2f} s, {units[0].ops} ops per unit, unit wall_s "
        + " ".join(f"{u.wall_s:.3f}" for u in units)
        + ", normalised " + " ".join(f"{u.norm_wall_s:.3f}" for u in units),
        f"{len(probe.durations)} speed probes, median {probe.median_ms():.3f} ms "
        f"of the {wl.kernel} kernel (normalised to {probe.reference_s * 1e3:g} ms)",
        f"wall_s           {statistics.median(u.wall_s for u in units):.6g} s (not normalised)",
        f"{ops:16s} {statistics.median(u.ops / u.ops_s for u in units):.6g} 1/s "
        "(not normalised)",
        f"raw setup        {raw_setup_s:.6g} s (not normalised)",
        *(f"{k:16s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
        f"  (norm_ops_per_s is {ops}, normalised, on this workload)",
    ]
    return _result(checks, metrics, lines)


def _traced(program, wl, seed, n, sweep_ns, out_dir):
    table_build_s, table_bytes = workloads.prepare(program, wl, seed, n)

    def traced_pass():
        tracer = layertrace.Tracer()
        with tracer.installed(program):
            return tracer, workloads.run_unit(program, wl, seed, 0, n, out_dir)

    # the untraced pass sits between the traced ones, so drift cancels in the overhead
    first = traced_pass()
    untraced = workloads.run_unit(program, wl, seed, 0, n, out_dir)
    second = traced_pass()
    checks = workloads.Checks()
    for unit in (first[1], untraced, second[1]):
        checks.add(unit.checks)
    counts, again = (workloads.exact_counts(tracer) for tracer, _ in (first, second))
    for name, count in counts.items():
        checks.expect(
            again[name] == count,
            f"benchmark fault: traced count {name} drifted, {count} then {again[name]}",
        )
    overhead = (first[1].wall_s + second[1].wall_s) / 2 / untraced.wall_s - 1.0
    values = workloads.layer_values(*first, table_build_s, table_bytes, overhead)
    values.update(workloads.n_sweep(program, seed, sweep_ns))
    layertrace.assert_no_wrappers(program)
    units = workloads.per_layer_units(sweep_ns)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    lines = [f"{k:40s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append("exact counts: " + json.dumps(counts))
    return _result(checks, metrics, lines)


def _result(checks, metrics, lines):
    frac = checks.failed / checks.attempted
    lines.append(f"failed_frac  {frac:.6g} ({checks.failed} of {checks.attempted} checks)")
    lines.extend("FAILED: " + m for m in checks.messages[:20])
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(
        provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    ))
    result, lines = measure(program, args.workload, args.seed, args.seconds,
                            bool(args.trace), workloads.SHIPPED_N, workloads.SWEEP_NS)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
