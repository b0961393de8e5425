"""Monte-Carlo experiment runner: trials, r-MSE curves, CSV emission.

A trial draws its own sine frequencies, sampling positions and noise, all
derived deterministically from (experiment seed, trial index), so every
algorithm inside one experiment sees identical measurement realizations and
cross-algorithm comparisons are paired.  Trial averaging happens on linear
r-MSE values; conversion to dB (with a -120 dB floor) is a reporting step.

Estimates and the true spectrum are held on the stored bins 0..N/2 of the
conjugate-symmetric spectrum (``sensing.half_size``).  The r-MSE is the
full spectrum's, sum_k weight_k |w_k - w*_k|^2 / sum_k weight_k |w*_k|^2 with
weight 2 on interior bins and 1 on bin 0 and, for even N, bin N/2, and a
trial's ``final_support`` names full-spectrum bins, {k, N - k} for each
stored k.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimators import THRESHOLDED, Estimator, EstimatorConfig, check_window
from .sensing import SensingConfig, Windowed, half_size, make_stream, paired_bins
from .signals import SignalSpec, multisine, noise_std, random_bins, signal_power, true_spectrum
from .sparse_ops import _complex_pair, support
from .tracker import TrackerParams

DB_FLOOR = -120.0

# iterates per r-MSE pass in run_trial: one (RMSE_BLOCK, N) row sum replaces
# RMSE_BLOCK per-step ones
RMSE_BLOCK = 32

# an iterate zero off K is reduced as a support row while |K| <= this share of
# the h = N//2 + 1 stored bins that K and a row hold: its K columns cost a
# gather and a scatter, several times more per entry than the contiguous
# passes of a dense row.  Measured on full-spectrum rows (h = N) at N = 1000,
# dense rows win from |K| between h/3 and h/2 on (short blocks first), and by
# about 1.5x at |K| = 2h/3; exp4's HARD-EST reaches |K| = h after its signal
# change.
SUPPORT_ROW_SHARE = 0.5

# a linear r-MSE above this marks a diverged trial even while it stays finite:
# 60 dB above the r-MSE of 1 that the zero estimate, w = 0, reaches
RMSE_CEILING = 1e6

# rows per write in write_curves_csv
CSV_CHUNK = 1024


def _weigh_rows(sq: np.ndarray, n: int, out) -> None:
    """out[r] = the full spectrum's sum of the squares sq[r] of bins 0..N/2,
    for the first out.size rows: the contiguous row sum of the paired bins
    doubled, then the others added.  No term is subtracted, so an infinite
    entry gives inf."""
    rows = out.size
    paired = paired_bins(n)
    sq[:rows, paired].sum(axis=1, out=out)
    out *= 2.0
    out += sq[:rows, 0]  # bin 0, before the paired bins
    if paired.stop < sq.shape[1]:  # bin N/2 of an even N, after them
        out += sq[:rows, -1]


def _sq_norm(v: np.ndarray, n: int) -> float:
    """||v||^2 of the full spectrum of length N whose bins 0..N/2 are v."""
    out = np.empty(1)
    _weigh_rows((v.real ** 2 + v.imag ** 2)[None], n, out)
    return float(out[0])


def _rmse_rows(block: np.ndarray, sig2: float, sq: np.ndarray, n: int, out) -> None:
    """out[r] = _sq_norm(block[r], N) / sig2 for the first out.size rows, each
    row holding an iterate's w - w*.

    Each row sum reduces a contiguous row of re^2 + im^2, as _sq_norm's one
    row does, so every value is the per-step one bit for bit.  ``block``
    and ``sq`` are preallocated work arrays; the call writes over both.
    """
    rows = out.size
    f = block[:rows].view(float)  # re, im interleaved
    np.multiply(f, f, out=f)
    np.add(f[:, 0::2], f[:, 1::2], out=sq[:rows])
    _weigh_rows(sq, n, out)
    out /= sig2


class _RmseRows:
    """The r-MSE of each iterate of a trial, into ``out``, RMSE_BLOCK rows per
    reduction.

    A block holds rows of one kind and one phase, on the stored bins 0..N/2.
    A dense iterate w is copied into ``block``; the flush subtracts w* on its support T alone and reduces
    the block by _rmse_rows.  Off T w* is an exact zero, so w_k - w*_k is w_k
    but for the sign of a zero, which its square drops, and every value is
    the per-row subtraction's bit for bit.  An iterate that is zero off its
    support K (``Estimator.sparse_iterate``) is held as its w[K]; a block of
    them shares one K object.  Off K its row of squared errors is
    base = re(w*)^2 + im(w*)^2, so the float rows of ``sq`` hold base there
    and only the K columns are computed, as _rmse_rows computes them; the same
    row sum then gives every value bit for bit.

    A new K starts a block and costs a flush of the last one, the K columns'
    indices in every row of ``sq`` and a reset of ``sq`` to base, several
    dense rows' worth.  So while K changes on consecutive steps, the
    rows are taken dense until a K repeats.  A K of more than ``max_kept``
    = SUPPORT_ROW_SHARE h of the h = N//2 + 1 stored bins is always taken
    dense, and a K of more than RMSE_BLOCK entries until it has lasted
    RMSE_BLOCK steps: measured on full-spectrum rows at N = 1000, a new K
    cost about 7 us plus 0.03 us per entry, and a support row saved about
    1 us over a dense one, so a K that lasts the 6 to 15 steps of exp4's
    moving supports costs more as support rows.  A smaller K keeps the
    one-step rule: its set-up, at most RMSE_BLOCK^2 positions, is mostly the
    flush's fixed cost, and such supports last long in the registry's runs
    (31 rows a flush on exp4 at N = 1000, full-spectrum rows).
    """

    def __init__(self, out: np.ndarray, n: int):
        self.out = out
        self.n = n
        h = half_size(n)
        self.block = np.empty((RMSE_BLOCK, h), dtype=complex)
        self.flat = self.block.reshape(-1)
        self.sq = np.empty(self.block.shape)
        self.row_at = np.arange(0, RMSE_BLOCK * h, h)[:, None]  # flat index of each row
        self.max_kept = int(h * SUPPORT_ROW_SHARE)
        self.start = self.rows = 0  # the block's first step and its row count
        self.kept = None  # K of the block's rows, None for dense rows
        self.values = []  # their w[K]
        # sq holds base but for the columns ``stale``; stale is None when sq
        # does not hold base.  For K = stale: w*[K], and the flat index of K
        # in each row of sq
        self.stale = None
        self.true_kept = self.at = None
        # the last step's K and the step at which it first came
        self.last, self.new_at = None, -2

    def phase(self, w_true: np.ndarray) -> None:
        """Start a phase whose true spectrum is w_true, on bins 0..N/2."""
        self.flush()
        self.w_true = w_true
        self.sig2 = _sq_norm(w_true, self.n)
        self.base = w_true.real * w_true.real + w_true.imag * w_true.imag
        true_at = np.flatnonzero(w_true)  # T
        # T's flat index in each row of block, and w*[T] once per row
        self.true_at = (self.row_at + true_at).ravel()
        self.true_on = np.tile(w_true[true_at], RMSE_BLOCK)
        self.stale = None

    def add(self, est: Estimator) -> None:
        sparse = est.sparse_iterate()
        if sparse is not None and sparse[0] is self.kept and self.rows < RMSE_BLOCK:
            # the block's K again: most steps of a settled support
            self.values.append(sparse[1])
            self.rows += 1
            return
        kept = None if sparse is None or sparse[0].size > self.max_kept else sparse[0]
        if kept is not None:
            step = self.start + self.rows
            young = False
            if kept is not self.last:
                young = self.new_at == step - 1  # K changed on the last step too
                self.last, self.new_at = kept, step
            if young or (kept.size > RMSE_BLOCK and step - self.new_at < RMSE_BLOCK):
                kept = None
        if kept is not self.kept or self.rows == RMSE_BLOCK:
            self.flush()
            self.kept = kept
        if kept is None:
            self.block[self.rows] = est.state.w
        else:
            self.values.append(sparse[1])
        self.rows += 1

    def flush(self) -> None:
        rows, start = self.rows, self.start
        if not rows:
            return
        out = self.out[start:start + rows]
        kept, sq = self.kept, self.sq
        if kept is None:
            k = rows * self.true_on.size // RMSE_BLOCK
            self.flat[self.true_at[:k]] -= self.true_on[:k]
            _rmse_rows(self.block, self.sig2, sq, self.n, out)
            self.stale = None
        else:
            if self.stale is not kept:
                sq[:] = self.base
                self.stale = kept
                self.true_kept = self.w_true[kept]
                self.at = (self.row_at + kept).ravel()
            d = np.concatenate(self.values).reshape(rows, kept.size)
            d -= self.true_kept
            f = d.view(float)
            np.multiply(f, f, out=f)
            sq.reshape(-1)[self.at[:d.size]] = (f[:, 0::2] + f[:, 1::2]).reshape(-1)
            _weigh_rows(sq, self.n, out)
            out /= self.sig2
            self.values = []
        self.start, self.rows = start + rows, 0


def rmse(w_true: np.ndarray, w_est: np.ndarray, n: int) -> float:
    """Relative mean-square error ||w - w_est||^2 / ||w||^2 (linear scale) of
    the length-N spectra whose bins 0..N/2 are given; ValueError unless both
    have shape (N//2 + 1,)."""
    w_true, w_est = _complex_pair(w_true, w_est)
    if w_true.shape != (half_size(n),):
        raise ValueError(f"spectra have shape {w_true.shape}, expected {(half_size(n),)}")
    sig = _sq_norm(w_true, n)
    if sig == 0.0:
        raise ValueError("reference spectrum must be nonzero")
    return _sq_norm(w_true - w_est, n) / sig


def rmse_db(value) -> np.ndarray | float:
    """Linear r-MSE to dB, floored at -120 dB."""
    arr = np.maximum(np.asarray(value, dtype=float), 10.0 ** (DB_FLOOR / 10.0))
    out = 10.0 * np.log10(arr)
    if np.ndim(value) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TrackingSpec:
    """Two-phase signal: after ``phase_windows[0]`` windows the signal gains
    ``extra_sines`` additional sines on fresh bins."""

    phase_windows: tuple[int, int]
    extra_sines: int

    def __post_init__(self):
        if self.extra_sines < 0:
            raise ValueError(f"extra_sines must be >= 0, got {self.extra_sines}")
        if len(self.phase_windows) != 2:
            raise ValueError(f"phase_windows must have 2 items, got {len(self.phase_windows)}")
        for i, windows in enumerate(self.phase_windows):
            if windows < 1:
                raise ValueError(f"phase_windows[{i}] must be >= 1, got {windows}")


@dataclass(frozen=True)
class AlgorithmSpec:
    label: str
    estimator: EstimatorConfig
    tracker: TrackerParams | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    signal: SignalSpec
    sensing: SensingConfig
    algorithms: tuple[AlgorithmSpec, ...]
    trials: int
    seed: int
    tracking: TrackingSpec | None = None

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("algorithms must list at least one algorithm")
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError("algorithm labels must be unique")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tracking is not None:
            if not isinstance(self.sensing.mode, Windowed):
                raise ValueError("tracking experiments require windowed sensing")
            if sum(self.tracking.phase_windows) != self.sensing.mode.windows:
                raise ValueError("phase windows must sum to the sensing window count")
            total = self.signal.sines + self.tracking.extra_sines
            if total > self.signal.n // 2 - 1:
                raise ValueError(
                    f"cannot place {self.signal.sines} + {self.tracking.extra_sines} sines"
                    f" on distinct bins in [1, {self.signal.n // 2 - 1}] at n={self.signal.n}"
                )
            if self.signal.snr_db < math.inf:
                # the second phase adds unit sines, so its noise std differs
                amps = self.signal.amplitudes + (1.0,) * self.tracking.extra_sines
                power = sum(a * a for a in amps) / 2.0  # signal_power of that phase
                try:
                    noise_std(power, self.signal.snr_db)
                except ValueError:
                    raise ValueError(
                        "signal.snr_db must give a finite, positive noise std at the"
                        f" second phase's signal power {power}, got {self.signal.snr_db}"
                    ) from None
        if self.signal.n != self.sensing.n:
            raise ValueError(
                f"signal.n ({self.signal.n}) must equal sensing.n ({self.sensing.n})"
            )
        for i, algo in enumerate(self.algorithms):
            check_window(algo.estimator, self.signal.n, algo.tracker is not None,
                         f"algorithms[{i}]")


@dataclass
class TrialRecord:
    label: str
    seed: tuple[int, int]  # (experiment seed, trial index)
    rmse_lin_trajectory: np.ndarray
    s_trajectory: np.ndarray | None
    final_support: frozenset[int]

    @property
    def rmse_db_trajectory(self) -> np.ndarray:
        return rmse_db(self.rmse_lin_trajectory)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    curves_lin: dict[str, np.ndarray]
    curves_db: dict[str, np.ndarray]
    s_mean: dict[str, np.ndarray | None]
    records: dict[str, list[TrialRecord]]

    def steady_state_db(self, label: str, tail: int | None = None) -> float:
        """Mean linear r-MSE over the trailing ``tail`` iterations, in dB;
        ``tail`` defaults to the last tenth and must be in [1, curve size]."""
        curve = self.curves_lin[label]
        if tail is None:
            tail = max(1, curve.size // 10)
        elif not 1 <= tail <= curve.size:
            raise ValueError(f"tail must be in [1, {curve.size}], got tail={tail}")
        return rmse_db(float(curve[-tail:].mean()))


@dataclass(frozen=True)
class _Phase:
    sensing: SensingConfig
    z: np.ndarray
    w_true: np.ndarray
    sigma: float


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _full_support(w: np.ndarray, n: int) -> frozenset[int]:
    """support(w) of stored bins, named as full-spectrum bins {k, N - k}."""
    kept = support(w)
    return kept | frozenset((n - k) % n for k in kept)


def _build_phases(spec: ExperimentSpec, trial: int) -> list[_Phase]:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, trial, 0]))
    sig = spec.signal
    if sig.bins is None:
        sig = replace(sig, bins=random_bins(sig.n, sig.sines, rng))

    if spec.tracking is None:
        sensing = replace(spec.sensing, seed=_derived_seed(spec.seed, trial, 1))
        sigma = noise_std(signal_power(sig), sig.snr_db)
        return [_Phase(sensing, multisine(sig), true_spectrum(sig), sigma)]

    # two-phase tracking signal: extra sines appear on fresh, distinct bins
    extra = spec.tracking.extra_sines
    pool = np.array(sorted(set(range(1, sig.n // 2)) - set(sig.bins)))
    extra_bins = tuple(int(b) for b in rng.choice(pool, size=extra, replace=False))
    sig2 = replace(
        sig,
        sines=sig.sines + extra,
        bins=sig.bins + extra_bins,
        amps=None if sig.amps is None else sig.amps + (1.0,) * extra,
    )
    phases = []
    for p, (phase_sig, wcount) in enumerate(zip((sig, sig2), spec.tracking.phase_windows)):
        sensing = replace(
            spec.sensing,
            mode=Windowed(wcount),
            seed=_derived_seed(spec.seed, trial, 1, p),
        )
        sigma = noise_std(signal_power(phase_sig), phase_sig.snr_db)
        phases.append(_Phase(sensing, multisine(phase_sig), true_spectrum(phase_sig), sigma))
    return phases


def run_trial(spec: ExperimentSpec, algo: AlgorithmSpec, trial: int) -> TrialRecord:
    """One deterministic trial of one algorithm; records r-MSE per iteration.

    The r-MSE of each iterate is rmse(w*, w, N) bit for bit, reduced
    RMSE_BLOCK rows at a time (_RmseRows): a dense iterate costs a copy into
    the block and an O(N) row, one that is zero off its support K costs
    O(|K|) and a row sum.

    Raises ValueError naming the label, the trial and the step when a step
    fails or the r-MSE turns NaN, infinite or above ``RMSE_CEILING``, so a
    diverged trial never enters a curve."""
    phases = _build_phases(spec, trial)
    est = Estimator(algo.estimator, spec.signal.n, algo.tracker)
    adaptive = algo.tracker is not None and algo.estimator.s is None

    total = sum(p.sensing.total_samples for p in phases)
    rmse_lin = np.empty(total)
    s_traj = np.full(total, np.nan) if adaptive else None
    n = spec.signal.n
    rows = _RmseRows(rmse_lin, n)

    i = 0
    step, add = est.step, rows.add
    try:
        for phase in phases:
            rows.phase(phase.w_true[:half_size(n)])
            stream = make_stream(
                phase.sensing, itertools.repeat(phase.z, phase.sensing.n_windows), phase.sigma
            )
            for sample in stream:
                step(sample)
                add(est)
                if adaptive and est.last_s is not None:
                    s_traj[i] = est.last_s
                i += 1
        rows.flush()
    except ValueError as err:
        raise ValueError(f"{algo.label} trial {trial}, step {i + 1}: {err}") from err
    assert i == total
    bounded = rmse_lin <= RMSE_CEILING  # NaN fails it too
    if not bounded.all():
        step = int(np.argmin(bounded)) + 1
        value = rmse_lin[step - 1]
        above = f", above the ceiling {RMSE_CEILING:g}" if math.isfinite(value) else ""
        raise ValueError(f"{algo.label} trial {trial}: r-MSE is {value} at step {step}{above}")

    return TrialRecord(
        label=algo.label,
        seed=(spec.seed, trial),
        rmse_lin_trajectory=rmse_lin,
        s_trajectory=s_traj,
        final_support=_full_support(est.state.w, n),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """All trials of all algorithms, averaged per iteration.

    Trials are independent; results do not depend on execution order because
    aggregation is a fixed-order reduction after all trials complete.
    """
    curves_lin: dict[str, np.ndarray] = {}
    curves_db: dict[str, np.ndarray] = {}
    s_mean: dict[str, np.ndarray | None] = {}
    records: dict[str, list[TrialRecord]] = {}

    for algo in spec.algorithms:
        recs = [run_trial(spec, algo, t) for t in range(spec.trials)]
        lin = np.mean([r.rmse_lin_trajectory for r in recs], axis=0)
        curves_lin[algo.label] = lin
        curves_db[algo.label] = rmse_db(lin)
        if recs[0].s_trajectory is not None:
            # burn-in leaves the same NaN prefix in every trial
            s_mean[algo.label] = np.mean([r.s_trajectory for r in recs], axis=0)
        else:
            s_mean[algo.label] = None
        records[algo.label] = recs

    return ExperimentResult(spec, curves_lin, curves_db, s_mean, records)


def time_to_reach(rmse_lin: np.ndarray, threshold_db: float) -> int | None:
    """1-based iteration at which the trajectory first reaches threshold_db."""
    hits = np.flatnonzero(rmse_lin <= 10.0 ** (threshold_db / 10.0))
    if hits.size == 0:
        return None
    return int(hits[0]) + 1


def bootstrap_diff_ci(
    a: np.ndarray,
    b: np.ndarray,
    n_boot: int = 4000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for mean(b - a) over paired trials.

    A sample that is not 1-D or holds a NaN or an infinity, unequal or empty
    samples, an n_boot below 1 and an alpha outside (0, 1), NaN included,
    raise ValueError naming the argument."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, v in (("a", a), ("b", b)):
        if v.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {v[bad[0]]} at index {bad[0]}")
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    if a.size == 0:
        raise ValueError("paired samples a and b must not be empty")
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    diffs = b - a
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diffs.size, size=(n_boot, diffs.size))
    means = diffs[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def write_curves_csv(result: ExperimentResult, path) -> None:
    """One row per (algorithm, iteration): experiment,label,iteration,rmse_db,s_est_mean.

    The bytes are a csv.writer's: a csv.writer quotes the name and label once
    per label, the numbers need no quoting, and lines end in CRLF.  Rows are
    formatted and saved CSV_CHUNK at a time.
    """
    fixed = {
        a.label: a.estimator.s
        for a in result.spec.algorithms
        if a.estimator.variant in THRESHOLDED
    }
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["experiment", "label", "iteration", "rmse_db", "s_est_mean"])
        for label, db in result.curves_db.items():
            lead = io.StringIO()
            csv.writer(lead).writerow([result.spec.name, label, ""])
            head = lead.getvalue()[:-2]  # "name,label," without the line end
            fixed_s = fixed.get(label)
            other = "" if fixed_s is None else str(fixed_s)
            s_curve = result.s_mean[label]
            for start in range(0, db.size, CSV_CHUNK):
                stop = min(start + CSV_CHUNK, db.size)
                if s_curve is None:
                    s_vals = [other] * (stop - start)
                else:
                    s_vals = [other if math.isnan(v) else f"{v:.4f}"
                              for v in s_curve[start:stop].tolist()]
                f.write("".join(
                    f"{head}{i},{d:.6f},{sv}\r\n"
                    for i, d, sv in zip(range(start + 1, stop + 1), db[start:stop].tolist(), s_vals)
                ))


def write_summary_csv(result: ExperimentResult, path, tail: int | None = None) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["experiment", "label", "trials", "iterations", "final_rmse_db", "steady_rmse_db"]
        )
        for label, db in result.curves_db.items():
            w.writerow(
                [
                    result.spec.name,
                    label,
                    result.spec.trials,
                    db.size,
                    f"{db[-1]:.6f}",
                    f"{result.steady_state_db(label, tail):.6f}",
                ]
            )


def write_gnuplot_dat(result: ExperimentResult, path) -> None:
    """Wide whitespace-separated layout: iteration then one dB column per label."""
    labels = list(result.curves_db)
    n = next(iter(result.curves_db.values())).size
    with open(path, "w") as f:
        f.write("# iteration " + " ".join(labels) + "\n")
        for i in range(n):
            row = " ".join(f"{result.curves_db[lb][i]:.6f}" for lb in labels)
            f.write(f"{i + 1} {row}\n")
