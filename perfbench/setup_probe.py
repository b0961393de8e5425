"""One set-up of a workload in a fresh process, timed from outside by run.py.

Usage: python3 perfbench/setup_probe.py EXPERIMENT|- N SEED

Imports the program from this checkout's src/, builds the registry spec and
the first fourier_rows(N) table (``-`` stands for the verification suites,
which need neither), then prints ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import sparselms  # noqa: E402
from sparselms import experiments, verification  # noqa: E402, F401

name, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if name != "-":
    experiments.get_experiment(name, n=n, seed=seed)
    sparselms.sensing.fourier_rows(n)
print("ready", flush=True)
