"""Command-line harness: list, run and export experiments, run verification suites."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import yaml

from . import experiments, verification
from .harness import (
    run_experiment,
    write_curves_csv,
    write_gnuplot_dat,
    write_summary_csv,
)


def _cmd_list(args) -> int:
    for name, build in experiments.REGISTRY.items():
        summary = (build.__doc__ or "").partition("\n")[0]
        print(f"{name:15s} {summary}")
    return 0


def _cmd_export(args) -> int:
    built = experiments.get_experiment(args.experiment)
    out = Path(args.out or f"{args.experiment}.yaml")
    if isinstance(built, list):
        experiments.save_specs(built, out)
    else:
        experiments.save_spec(built, out)
    print(f"wrote {out}")
    return 0


def _resolve_specs(args):
    """The specs to run, with the overrides applied; a config error, a bad
    override or a signal that cannot be drawn exits with a one-line message."""
    target = args.experiment
    path = Path(target)
    if target not in experiments.REGISTRY and not path.exists():
        raise SystemExit(f"no such experiment or config file: {target}")
    try:
        if target in experiments.REGISTRY:
            built = experiments.get_experiment(
                target, trials=args.trials, n=args.scale, seed=args.seed
            )
            return built if isinstance(built, list) else [built]
        loaded = experiments.load_specs(path)
        given = {"trials": args.trials, "seed": args.seed}
        overrides = {k: v for k, v in given.items() if v is not None}
        specs = [replace(s, **overrides) for s in loaded]
    except (ValueError, yaml.YAMLError) as err:
        raise SystemExit("error: " + " ".join(str(err).split())) from None
    if args.scale is not None:
        raise SystemExit("--scale applies to registry experiments only")
    return specs


def _cmd_run(args) -> int:
    specs = _resolve_specs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_rows = []
    for spec in specs:
        t0 = time.perf_counter()
        result = run_experiment(spec)
        elapsed = time.perf_counter() - t0
        write_curves_csv(result, out / f"{spec.name}_curves.csv")
        write_summary_csv(result, out / f"{spec.name}_summary.csv")
        if args.gnuplot:
            write_gnuplot_dat(result, out / f"{spec.name}_curves.dat")
        steps = sum(r.rmse_lin_trajectory.size for recs in result.records.values() for r in recs)
        print(f"{spec.name}: {spec.trials} trial(s), {elapsed:.1f}s, {steps / elapsed:.0f} steps/s")
        for label in result.curves_db:
            ss = result.steady_state_db(label)
            print(f"  {label:18s} final {result.curves_db[label][-1]:8.2f} dB"
                  f"  steady {ss:8.2f} dB")
            sweep_rows.append([spec.name, label, spec.sensing.m, f"{ss:.6f}"])
    if len(specs) > 1:
        sweep_path = out / "msweep_summary.csv"
        with open(sweep_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["experiment", "label", "m", "steady_rmse_db"])
            w.writerows(sweep_rows)
        print(f"wrote {sweep_path}")
    return 0


def _report(runs) -> int:
    """Run each suite and print its result line with its wall time and
    draws/s; exit status 0 only when all passed."""
    passed = True
    for run in runs:
        t0 = time.perf_counter()
        suite = run()
        elapsed = time.perf_counter() - t0
        head, sep, notes = str(suite).partition("\n")
        print(f"{head}  {elapsed:.2f}s, {suite.draws / elapsed:.0f} draws/s{sep}{notes}")
        passed = passed and suite.passed
    return 0 if passed else 1


def _cmd_verify(args) -> int:
    return _report([
        lambda: verification.theorem2_suite(args.draws, args.seed),
        lambda: verification.theorem3_suite(args.draws, args.seed + 1),
        lambda: verification.tightness_suite(seed=args.seed + 2),
    ])


def _cmd_oracle(args) -> int:
    return _report([
        lambda: verification.hard_threshold_oracle_suite(args.draws, args.seed),
        lambda: verification.sensing_identity_suite(),
        lambda: verification.roundtrip_suite(args.seed + 1),
    ])


def _at_least(low: int, what: str):
    """The argparse type of an option that takes an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"need {what} of at least {low}, got {value}")
        return value

    return parse


_draw_count, _seed = _at_least(1, "a draw count"), _at_least(0, "a seed")
_trial_count, _window_length = _at_least(1, "a trial count"), _at_least(1, "a window length")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparselms",
        description="Online sparse spectrum estimation from sub-Nyquist samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registry experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run an experiment by name or config path")
    run.add_argument("experiment")
    run.add_argument("--trials", type=_trial_count, default=None)
    run.add_argument("--seed", type=_seed, default=None)
    run.add_argument("--scale", type=_window_length, default=None, metavar="N",
                     help="rebuild a registry experiment at window length N")
    run.add_argument("--out", default="results")
    run.add_argument("--gnuplot", action="store_true",
                     help="also write a wide gnuplot-style .dat file")
    run.set_defaults(func=_cmd_run)

    export = sub.add_parser("export", help="write a registry experiment as a config file")
    export.add_argument("experiment", choices=list(experiments.REGISTRY))
    export.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: <experiment>.yaml)")
    export.set_defaults(func=_cmd_export)

    verify = sub.add_parser("verify", help="randomized support-recovery suites")
    verify.add_argument("--draws", type=_draw_count, default=100_000)
    verify.add_argument("--seed", type=_seed, default=7)
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle.add_argument("--draws", type=_draw_count, default=10_000)
    oracle.add_argument("--seed", type=_seed, default=11)
    oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
