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
from dataclasses import MISSING, astuple, dataclass, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

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


def _signal(n: int) -> SignalSpec:
    """The shipped test signal: ``_scaled_k(n)`` unit sines at 20 dB SNR."""
    return SignalSpec(n=n, sines=_scaled_k(n), snr_db=20.0)


def _tracker(n: int) -> TrackerParams:
    """The online budget of HARD-EST and HARD-L0 in exp2, exp3 and exp-msweep."""
    return TrackerParams(lam=0.99, xi=map_xi(1.0, n), q_star=0.05)


def build_exp1(trials: int = 1, n: int = 1000, seed: int = 101) -> ExperimentSpec:
    """Support recovery, M=300 of N=1000, 10 passes: HARD-LMS vs plain LMS."""
    m = _scaled_m(300, n)
    sig = _signal(n)
    k = sig.sines
    mu = map_mu(1.0, n)
    return ExperimentSpec(
        name="exp1",
        signal=sig,
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(10)),
        algorithms=(
            AlgorithmSpec("HARD-LMS", EstimatorConfig("hard", mu=mu, s=2 * k, burn_in=m)),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=mu)),
        ),
        trials=trials,
        seed=seed,
    )


def build_exp2(trials: int = 20, n: int = 1000, seed: int = 203) -> ExperimentSpec:
    """Sparsity budget: fixed 20/40/80 vs online estimate, M=200, 100 passes."""
    m = _scaled_m(200, n)
    sig = _signal(n)
    k = sig.sines
    mu = map_mu(1.0, n)
    burn = 2 * m
    return ExperimentSpec(
        name="exp2",
        signal=sig,
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(100)),
        algorithms=(
            AlgorithmSpec("HARD-20", EstimatorConfig("hard", mu=mu, s=2 * k, burn_in=burn)),
            AlgorithmSpec("HARD-40", EstimatorConfig("hard", mu=mu, s=4 * k, burn_in=burn)),
            AlgorithmSpec("HARD-80", EstimatorConfig("hard", mu=mu, s=8 * k, burn_in=burn)),
            AlgorithmSpec(
                "HARD-EST", EstimatorConfig("hard", mu=mu, burn_in=burn), tracker=_tracker(n)
            ),
            AlgorithmSpec("LMS", EstimatorConfig("lms", mu=mu)),
        ),
        trials=trials,
        seed=seed,
    )


def _literature_lineup(sig: SignalSpec, m: int) -> tuple[AlgorithmSpec, ...]:
    n = sig.n
    mu = map_mu(1.0, n)
    rho = map_rho(0.005, n)
    beta = map_beta(0.5, n)
    eps = map_epsilon(2.25, n)
    track = _tracker(n)
    return (
        AlgorithmSpec("ZA", EstimatorConfig("za", mu=mu, rho=rho)),
        AlgorithmSpec("RZA", EstimatorConfig("rza", mu=mu, rho=rho, epsilon=eps)),
        AlgorithmSpec("L0", EstimatorConfig("l0", mu=mu, rho=rho, beta=beta)),
        AlgorithmSpec("SZA", EstimatorConfig("sza", mu=mu, rho=rho, s=2 * sig.sines)),
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
    """Convergence speed vs shrinkage estimators, M=200, 100 passes."""
    m = _scaled_m(200, n)
    sig = _signal(n)
    return ExperimentSpec(
        name="exp3",
        signal=sig,
        sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(100)),
        algorithms=_literature_lineup(sig, m),
        trials=trials,
        seed=seed,
    )


def build_exp_msweep(trials: int = 50, n: int = 1000, seed: int = 404) -> list[ExperimentSpec]:
    """Steady-state error for M=100..1000 samples per window, 50 passes."""
    sig = _signal(n)
    # at small N two reference M can round to one M, which runs once
    m_values = sorted({_scaled_m(m_ref, n) for m_ref in range(100, 1001, 100)})
    return [
        ExperimentSpec(
            name=f"exp-msweep-m{m}",
            signal=sig,
            sensing=SensingConfig(n=n, m=m, mode=RepeatedPass(50)),
            algorithms=_literature_lineup(sig, m),
            trials=trials,
            seed=seed,
        )
        for m in m_values
    ]


def build_exp4_tracking(trials: int = 1, n: int = 1000, seed: int = 505) -> ExperimentSpec:
    """Sparsity-change tracking: the signal doubles its sines mid-stream, windowed."""
    m = _scaled_m(200, n)
    sig = _signal(n)
    mu = map_mu(1.0, n)
    burn = 2 * m
    base = dict(lam=0.98, q_star=0.005)
    return ExperimentSpec(
        name="exp4-tracking",
        signal=sig,
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
        tracking=TrackingSpec(phase_windows=(150, 150), extra_sines=sig.sines),
    )


REGISTRY = {
    "exp1": build_exp1,
    "exp2": build_exp2,
    "exp3": build_exp3,
    "exp-msweep": build_exp_msweep,
    "exp4-tracking": build_exp4_tracking,
}


def get_experiment(name: str, trials=None, n=None, seed=None):
    """Build a registry experiment, optionally overriding trials/scale/seed."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; choices: {sorted(REGISTRY)}")
    given = {"trials": trials, "n": n, "seed": seed}
    return REGISTRY[name](**{k: v for k, v in given.items() if v is not None})


# -- config files ----------------------------------------------------------------

_MODES = {"repeated": RepeatedPass, "windowed": Windowed}


@dataclass(frozen=True)
class _SensingFile:
    """The sensing section of a config file: no seed, since each trial derives
    its own, and the stream mode by name with its pass or window count."""

    n: int
    m: int
    mode: str
    count: int


def spec_to_dict(value):
    """A spec in config-file form: the fields of each dataclass that differ
    from their defaults, nested as the dataclasses nest, tuples as lists."""
    if isinstance(value, SensingConfig):
        mode = next(name for name, cls in _MODES.items() if isinstance(value.mode, cls))
        value = _SensingFile(value.n, value.m, mode, *astuple(value.mode))
    if is_dataclass(value):
        return {
            f.name: spec_to_dict(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) != f.default
        }
    if isinstance(value, tuple):
        return [spec_to_dict(v) for v in value]
    return value


def _build(make, where: str):
    """``make()``, naming the section when a dataclass's own check fails."""
    try:
        return make()
    except ValueError as err:
        if not where:
            raise
        raise ValueError(f"{where}: {err}") from err


def _load(cls, d, where: str = ""):
    """The dataclass ``cls`` from its config section ``d``."""
    if not isinstance(d, dict):
        raise ValueError(f"config section {where or '<top>'} must be a mapping, got {d!r}")
    hints = get_type_hints(cls)
    at = f"{where}." if where else ""
    for key in d:
        if key not in hints:
            raise ValueError(f"unknown config key {at}{key}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _value(hints[f.name], d[f.name], at + f.name)
        elif f.default is MISSING:
            raise ValueError(f"missing config key {at}{f.name}")
    return _build(lambda: cls(**kwargs), where)


def _value(tp, value, where: str):
    """``value`` checked against the annotation ``tp``: int rejects bool and
    float, and float takes an int or the string 'inf'."""
    if tp is SensingConfig:
        form = _load(_SensingFile, value, where)
        if form.mode not in _MODES:
            raise ValueError(f"{where}.mode must be one of {tuple(_MODES)}, got {form.mode!r}")
        return _build(lambda: SensingConfig(form.n, form.m, _MODES[form.mode](form.count)), where)
    if is_dataclass(tp):
        return _load(tp, value, where)
    args = get_args(tp)
    if isinstance(tp, UnionType):  # X | None
        (inner,) = set(args) - {type(None)}
        return None if value is None else _value(inner, value, where)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(value) != len(args):
            raise ValueError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(_value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if tp is float and (type(value) is int or value == "inf"):
        value = float(value)
    if type(value) is not tp:
        raise ValueError(f"{where} must be {tp.__name__}, got {value!r}")
    return value


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build a spec from its config-file form.  An unknown or missing key, a
    value of the wrong type, and a value that a dataclass rejects raise
    ValueError naming the path, such as ``signal.seed`` or
    ``algorithms[0].estimator.s``."""
    return _load(ExperimentSpec, d)


# yaml is imported where a config is read or saved: building a spec needs none
def save_specs(specs: list[ExperimentSpec], path) -> None:
    """Write specs as a config file that load_specs reads back: one spec as a
    bare mapping, several as a list under the ``experiments`` key."""
    import yaml

    if not specs:
        raise ValueError("need at least one spec to save")
    dicts = [spec_to_dict(s) for s in specs]
    doc = dicts[0] if len(dicts) == 1 else {"experiments": dicts}
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=False)


def _spec_in(path, d, where: str = "") -> ExperimentSpec:
    try:
        return spec_from_dict(d)
    except ValueError as err:
        raise ValueError(f"{path}: {where}{err}") from err


def load_specs(path) -> list[ExperimentSpec]:
    """Load one experiment (or a list under the ``experiments`` key) from YAML.
    A config error raises ValueError naming the file and the field; so does a
    repeated experiment name, since each experiment's CSVs are named after it."""
    import yaml

    with open(path) as f:
        doc = yaml.safe_load(f)
    if doc is None:
        raise ValueError(f"config file {path} is empty")
    if not (isinstance(doc, dict) and "experiments" in doc):
        return [_spec_in(path, doc)]
    for key in doc:
        if key != "experiments":
            raise ValueError(f"{path}: unknown config key {key}")
    entries = doc["experiments"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: config key experiments must be a list, got {entries!r}")
    if not entries:
        raise ValueError(f"{path}: config key experiments must list at least one experiment")
    specs = [_spec_in(path, d, f"experiments[{i}]: ") for i, d in enumerate(entries)]
    first = {}
    for i, spec in enumerate(specs):
        j = first.setdefault(spec.name, i)
        if j != i:
            raise ValueError(
                f"{path}: experiments[{i}].name {spec.name!r} repeats experiments[{j}].name"
            )
    return specs
