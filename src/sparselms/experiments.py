"""Experiment registry, desk-scale scaling, and config-file round-tripping.

Reference parameter values for the shipped experiments are stated for
unit-norm regressor rows (step 1, shrinkage 0.005, and so on).  This library
uses unit-magnitude regressor entries, which rescales the spectrum by
sqrt(N); the helpers below convert the reference values so that estimator
trajectories are algebraically identical to the unit-norm formulation:

    step        mu   -> mu / N
    shrinkage   rho  -> rho / sqrt(N)
    sharpness   beta -> beta * sqrt(N)
    reweighting eps  -> eps * sqrt(N)
    correction  xi   -> xi / N

The occupancy thresholds q* are already expressed in this library's units
(coefficient magnitude A/2 = 0.5 for unit sines, so "one tenth" is 0.05 and
"one hundredth" is 0.005).
"""

from __future__ import annotations

import math
from dataclasses import asdict

import yaml

from .estimators import EstimatorConfig
from .harness import AlgorithmSpec, ExperimentSpec, TrackingSpec
from .sensing import RepeatedPass, SensingConfig, Windowed
from .signals import SignalSpec
from .tracker import TrackerParams

REFERENCE_N = 1000


def map_mu(mu_ref: float, n: int) -> float:
    return mu_ref / n


def map_rho(rho_ref: float, n: int) -> float:
    return rho_ref / math.sqrt(n)


def map_beta(beta_ref: float, n: int) -> float:
    return beta_ref * math.sqrt(n)


def map_epsilon(eps_ref: float, n: int) -> float:
    return eps_ref * math.sqrt(n)


def map_xi(xi_ref: float, n: int) -> float:
    return xi_ref / n


def _scaled_m(m_ref: int, n: int) -> int:
    return max(1, round(m_ref * n / REFERENCE_N))


def _scaled_k(n: int) -> int:
    """Sine count scaled with the window so s/M difficulty is preserved."""
    return max(2, round(10 * n / REFERENCE_N))


def build_exp1(trials: int = 1, n: int = 1000, seed: int = 101) -> ExperimentSpec:
    """Support identification under 3.3x undersampling: thresholded vs plain LMS."""
    m = _scaled_m(300, n)
    k = _scaled_k(n)
    mu = map_mu(1.0, n)
    return ExperimentSpec(
        name="exp1",
        signal=SignalSpec(n=n, sines=k, snr_db=20.0),
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(10)),
        algorithms=(
            AlgorithmSpec("HARD-LMS", EstimatorConfig("hard", mu=mu, s=2 * k, burn_in=m)),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=mu)),
        ),
        trials=trials,
        seed=seed,
    )


def build_exp2(trials: int = 20, n: int = 1000, seed: int = 203) -> ExperimentSpec:
    """Effect of the sparsity budget: fixed budgets 20/40/80 vs online estimate."""
    m = _scaled_m(200, n)
    k = _scaled_k(n)
    mu = map_mu(1.0, n)
    burn = 2 * m
    track = TrackerParams(lam=0.99, xi=map_xi(1.0, n), q_star=0.05)
    return ExperimentSpec(
        name="exp2",
        signal=SignalSpec(n=n, sines=k, snr_db=20.0),
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(100)),
        algorithms=(
            AlgorithmSpec("HARD-20", EstimatorConfig("hard", mu=mu, s=2 * k, burn_in=burn)),
            AlgorithmSpec("HARD-40", EstimatorConfig("hard", mu=mu, s=4 * k, burn_in=burn)),
            AlgorithmSpec("HARD-80", EstimatorConfig("hard", mu=mu, s=8 * k, burn_in=burn)),
            AlgorithmSpec(
                "HARD-EST", EstimatorConfig("hard", mu=mu, burn_in=burn), tracker=track
            ),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=mu)),
        ),
        trials=trials,
        seed=seed,
    )


def _literature_lineup(n: int, m: int) -> tuple[AlgorithmSpec, ...]:
    k = _scaled_k(n)
    mu = map_mu(1.0, n)
    rho = map_rho(0.005, n)
    beta = map_beta(0.5, n)
    eps = map_epsilon(2.25, n)
    track = TrackerParams(lam=0.99, xi=map_xi(1.0, n), q_star=0.05)
    return (
        AlgorithmSpec("ZA", EstimatorConfig("za", mu=mu, rho=rho)),
        AlgorithmSpec("RZA", EstimatorConfig("rza", mu=mu, rho=rho, epsilon=eps)),
        AlgorithmSpec("L0", EstimatorConfig("l0", mu=mu, rho=rho, beta=beta)),
        AlgorithmSpec("SZA", EstimatorConfig("sza", mu=mu, rho=rho, s=2 * k)),
        AlgorithmSpec(
            "HARD-EST", EstimatorConfig("hard", mu=mu, burn_in=m), tracker=track
        ),
        AlgorithmSpec(
            "HARD-L0",
            EstimatorConfig("hard_l0", mu=mu, rho=rho, beta=beta, burn_in=2 * m),
            tracker=track,
        ),
    )


def build_exp3(trials: int = 20, n: int = 1000, seed: int = 303) -> ExperimentSpec:
    """Convergence-speed comparison against shrinkage-based estimators."""
    m = _scaled_m(200, n)
    return ExperimentSpec(
        name="exp3",
        signal=SignalSpec(n=n, sines=10, snr_db=20.0),
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(100)),
        algorithms=_literature_lineup(n, m),
        trials=trials,
        seed=seed,
    )


def build_exp_msweep(
    trials: int = 50, n: int = 1000, seed: int = 404, m_values: tuple[int, ...] | None = None
) -> list[ExperimentSpec]:
    """Steady-state error versus number of observed samples per window."""
    if m_values is None:
        m_values = tuple(_scaled_m(m_ref, n) for m_ref in range(100, 1001, 100))
    specs = []
    for m in m_values:
        specs.append(
            ExperimentSpec(
                name=f"exp-msweep-m{m}",
                signal=SignalSpec(n=n, sines=_scaled_k(n), snr_db=20.0),
                sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(50)),
                algorithms=_literature_lineup(n, m),
                trials=trials,
                seed=seed,
            )
        )
    return specs


def build_exp4_tracking(trials: int = 1, n: int = 1000, seed: int = 505) -> ExperimentSpec:
    """Sparsity-change tracking: the signal gains 10 extra sines mid-stream."""
    m = _scaled_m(200, n)
    k = _scaled_k(n)
    mu = map_mu(1.0, n)
    burn = 2 * m
    base = dict(lam=0.98, q_star=0.005)
    return ExperimentSpec(
        name="exp4-tracking",
        signal=SignalSpec(n=n, sines=k, snr_db=20.0),
        sensing=SensingConfig(n=n, m=m, mode=Windowed(300)),
        algorithms=(
            AlgorithmSpec(
                "HARD-EST",
                EstimatorConfig("hard", mu=mu, burn_in=burn),
                tracker=TrackerParams(xi=map_xi(20.0, n), **base),
            ),
            AlgorithmSpec(
                "HARD-EST-SIMPLE",
                EstimatorConfig("hard", mu=mu, burn_in=burn),
                tracker=TrackerParams(xi=0.0, **base),
            ),
        ),
        trials=trials,
        seed=seed,
        tracking=TrackingSpec(phase_windows=(150, 150), extra_sines=k),
    )


REGISTRY = {
    "exp1": build_exp1,
    "exp2": build_exp2,
    "exp3": build_exp3,
    "exp-msweep": build_exp_msweep,
    "exp4-tracking": build_exp4_tracking,
}

DESCRIPTIONS = {
    "exp1": "support recovery, M=300 of N=1000, 10 passes, single trial",
    "exp2": "fixed budgets 20/40/80 vs online budget estimate, M=200, 100 passes",
    "exp3": "speed comparison vs shrinkage estimators, M=200, 100 passes",
    "exp-msweep": "steady-state error for M=100..1000, 50 passes",
    "exp4-tracking": "two-phase signal, windowed sampling, budget tracking",
}


def get_experiment(name: str, trials=None, n=None, seed=None):
    """Build a registry experiment, optionally overriding trials/scale/seed."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; choices: {sorted(REGISTRY)}")
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = trials
    if n is not None:
        kwargs["n"] = n
    if seed is not None:
        kwargs["seed"] = seed
    return REGISTRY[name](**kwargs)


# -- config-file round trip ---------------------------------------------------


def spec_to_dict(spec: ExperimentSpec) -> dict:
    mode = spec.sensing.mode
    d = {
        "name": spec.name,
        "signal": {k: v for k, v in asdict(spec.signal).items() if v is not None},
        "sensing": {
            "n": spec.sensing.n,
            "m": spec.sensing.m,
            "mode": "repeated" if isinstance(mode, RepeatedPass) else "windowed",
            "count": mode.passes if isinstance(mode, RepeatedPass) else mode.windows,
        },
        "trials": spec.trials,
        "seed": spec.seed,
        "algorithms": [],
    }
    if math.isinf(d["signal"].get("snr_db", 0.0)):
        d["signal"]["snr_db"] = "inf"
    if "bins" in d["signal"]:
        d["signal"]["bins"] = list(d["signal"]["bins"])
    if "amps" in d["signal"]:
        d["signal"]["amps"] = list(d["signal"]["amps"])
    for algo in spec.algorithms:
        entry = {"label": algo.label, "estimator": asdict(algo.estimator)}
        if algo.estimator.s is None:
            del entry["estimator"]["s"]
        if algo.tracker is not None:
            entry["tracker"] = asdict(algo.tracker)
        d["algorithms"].append(entry)
    if spec.tracking is not None:
        d["tracking"] = {
            "phase_windows": list(spec.tracking.phase_windows),
            "extra_sines": spec.tracking.extra_sines,
        }
    if spec.db_mean:
        d["db_mean"] = True
    return d


def spec_from_dict(d: dict) -> ExperimentSpec:
    sig = dict(d["signal"])
    if sig.get("snr_db") == "inf":
        sig["snr_db"] = math.inf
    if "bins" in sig:
        sig["bins"] = tuple(sig["bins"])
    if "amps" in sig:
        sig["amps"] = tuple(sig["amps"])
    sens = d["sensing"]
    modes = {"repeated": RepeatedPass, "windowed": Windowed}
    if sens["mode"] not in modes:
        raise ValueError(
            f"sensing.mode must be 'repeated' or 'windowed', got {sens['mode']!r}"
        )
    mode = modes[sens["mode"]](sens["count"])
    algorithms = []
    for entry in d["algorithms"]:
        tracker = TrackerParams(**entry["tracker"]) if "tracker" in entry else None
        algorithms.append(
            AlgorithmSpec(entry["label"], EstimatorConfig(**entry["estimator"]), tracker)
        )
    tracking = None
    if "tracking" in d:
        tracking = TrackingSpec(
            phase_windows=tuple(d["tracking"]["phase_windows"]),
            extra_sines=d["tracking"]["extra_sines"],
        )
    return ExperimentSpec(
        name=d["name"],
        signal=SignalSpec(**sig),
        sensing=SensingConfig(n=sens["n"], m=sens["m"], mode=mode),
        algorithms=tuple(algorithms),
        trials=d["trials"],
        seed=d["seed"],
        tracking=tracking,
        db_mean=d.get("db_mean", False),
    )


def save_spec(spec: ExperimentSpec, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(spec_to_dict(spec), f, sort_keys=False)


def save_specs(specs: list[ExperimentSpec], path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump({"experiments": [spec_to_dict(s) for s in specs]}, f, sort_keys=False)


def load_specs(path) -> list[ExperimentSpec]:
    """Load one experiment (or a list under the ``experiments`` key) from YAML."""
    with open(path) as f:
        doc = yaml.safe_load(f)
    if "experiments" in doc:
        return [spec_from_dict(d) for d in doc["experiments"]]
    return [spec_from_dict(doc)]
