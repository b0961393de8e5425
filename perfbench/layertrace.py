"""Outside-in layer tracing: wrappers around the program's public functions.

A ``Tracer`` replaces module attributes of the program (for example
``sparselms.estimators.hard_threshold``, the binding ``Estimator.step`` calls)
with timing wrappers, and puts the originals back when its ``installed()``
block ends.  Each wrapper records one span per call: calls, inclusive time and
self time (inclusive minus the time covered by wrapped callees).  Work a
wrapper does after its callee returns (bookkeeping such as comparing supports)
is excluded from the spans of its callers, so it shows only in the traced
run's wall time, i.e. in ``trace.overhead_frac``.

Nothing here runs in an untraced run except ``assert_no_wrappers``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

_MARK = "_perfbench_span"

# (verification function, the name its SuiteResult reports)
SUITES = (
    ("theorem2_suite", "theorem2"),
    ("theorem3_suite", "theorem3"),
    ("hard_threshold_oracle_suite", "hard-threshold-oracle"),
)


def program_modules(program):
    """The program's modules and classes whose attributes a tracer may replace."""
    return (
        program,
        program.estimators,
        program.estimators.Estimator,
        program.experiments,
        program.harness,
        program.sensing,
        program.sparse_ops,
        program.tracker,
        program.verification,
    )


def assert_no_wrappers(program) -> None:
    """Raise if any tracing wrapper is still installed in the program."""
    for owner in program_modules(program):
        for attr, value in vars(owner).items():
            if hasattr(value, _MARK):
                raise RuntimeError(
                    f"tracing wrapper still installed at {owner.__name__}.{attr}"
                )


class _Stream:
    """Iterator over a make_stream generator that times each next() call."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._stack = tracer.stack
        self._book = tracer.book
        self._acc = tracer.spans.setdefault("sensing.sample", [0, 0, 0])

    def __iter__(self):
        return self

    def __next__(self):
        book = self._book
        book0 = book[0]
        t0 = time.perf_counter_ns()
        sample = next(self._gen)  # StopIteration ends the stream and records nothing
        t1 = time.perf_counter_ns()
        dt = t1 - t0 - (book[0] - book0)
        self._stack[-1] += dt
        acc = self._acc
        acc[0] += 1
        acc[1] += dt
        acc[2] += dt
        book[0] += time.perf_counter_ns() - t1
        return sample


class Tracer:
    """Spans and counts of one traced pass.

    ``spans[name]`` is ``[calls, inclusive ns, self ns]``.  ``steps[label]``
    holds the inclusive and self ns of every ``Estimator.step`` call made in a
    trial of that label.  ``counts`` holds the support-stability and
    budget-change tallies and the suite draw counts.
    """

    def __init__(self):
        self.stack = [0]  # one entry per open span: ns covered by its callees
        self.book = [0]  # ns of wrapper bookkeeping, excluded from callers' spans
        self.spans: dict[str, list[int]] = {}
        self.steps: dict[str, tuple[list[int], list[int]]] = {}
        self.counts: Counter = Counter()
        self._step_lists: tuple[list[int], list[int]] = ([], [])
        self._prev_support = None
        self._prev_budget = None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(out, ns, self_ns)`` runs untimed."""
        acc = self.spans.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns
        stack, book = self.stack, self.book

        def wrapper(*args, **kwargs):
            stack.append(0)
            book0 = book[0]
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            dt = t1 - t0 - (book[0] - book0)
            self_ns = dt - stack.pop()
            stack[-1] += dt
            acc[0] += 1
            acc[1] += dt
            acc[2] += self_ns
            if after is not None:
                after(out, dt, self_ns)
            book[0] += clock() - t1
            return out

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_trial(self, fn):
        timed = self._wrap("harness.trial", fn)

        def run_trial(spec, algo, trial):
            self._step_lists = self.steps.setdefault(algo.label, ([], []))
            self._prev_support = None
            self._prev_budget = None
            return timed(spec, algo, trial)

        setattr(run_trial, _MARK, "harness.trial")
        run_trial.__wrapped__ = fn
        return run_trial

    def _wrap_stream(self, fn):
        def make_stream(*args, **kwargs):
            return _Stream(fn(*args, **kwargs), self)

        setattr(make_stream, _MARK, "sensing.sample")
        make_stream.__wrapped__ = fn
        return make_stream

    # -- bookkeeping hooks ----------------------------------------------------

    def _after_step(self, out, ns, self_ns) -> None:
        incl, selfs = self._step_lists
        incl.append(ns)
        selfs.append(self_ns)

    def _after_threshold(self, out, ns, self_ns) -> None:
        kept = (out != 0).tobytes()  # the support as a byte mask: cheap to compare
        prev = self._prev_support
        if prev is not None:
            self.counts["support_compared"] += 1
            if kept == prev:
                self.counts["support_stable"] += 1
        self._prev_support = kept

    def _after_budget(self, s, ns, self_ns) -> None:
        prev = self._prev_budget
        if prev is not None:
            self.counts["budget_compared"] += 1
            if s != prev:
                self.counts["budget_changed"] += 1
        self._prev_budget = s

    def _after_suite(self, result, ns, self_ns) -> None:
        self.counts[f"draws.{result.name}"] += result.draws

    # -- installation ---------------------------------------------------------

    def _patches(self, program):
        est, exp, har = program.estimators, program.experiments, program.harness
        ops, ver = program.sparse_ops, program.verification
        w = self._wrap
        return [
            (exp, "get_experiment", w("experiments.build", exp.get_experiment)),
            (har, "run_experiment", w("harness.experiment", har.run_experiment)),
            (har, "run_trial", self._wrap_trial(har.run_trial)),
            (har, "make_stream", self._wrap_stream(har.make_stream)),
            (har, "write_curves_csv", w("harness.csv", har.write_curves_csv)),
            (har, "write_summary_csv", w("harness.csv", har.write_summary_csv)),
            (har, "multisine", w("signals.trial_build", har.multisine)),
            (har, "true_spectrum", w("signals.trial_build", har.true_spectrum)),
            (har, "random_bins", w("signals.trial_build", har.random_bins)),
            (est.Estimator, "step",
             w("estimators.step", est.Estimator.step, self._after_step)),
            (est, "hard_threshold",
             w("sparse_ops.threshold", est.hard_threshold, self._after_threshold)),
            (est, "complex_sign", w("sparse_ops.penalty", est.complex_sign)),
            (est, "selective_penalty", w("sparse_ops.penalty", est.selective_penalty)),
            (est, "tracker_update", w("tracker.update", est.tracker_update)),
            (est, "estimate_sparsity",
             w("tracker.query", est.estimate_sparsity, self._after_budget)),
            (est, "occupancy_mask", w("tracker.query", est.occupancy_mask)),
            (ops, "hard_threshold", w("sparse_ops.threshold", ops.hard_threshold)),
            (ver, "hard_threshold", w("sparse_ops.threshold", ver.hard_threshold)),
            (ver, "theorem2_check", w("verification.check", ver.theorem2_check)),
            (ver, "theorem3_check", w("verification.check", ver.theorem3_check)),
        ] + [
            (ver, attr, w(f"verification.suite.{suite}", getattr(ver, attr), self._after_suite))
            for attr, suite in SUITES
        ]

    @contextmanager
    def installed(self, program):
        """Replace the program's attributes with wrappers for the block's duration."""
        assert_no_wrappers(program)
        originals = []
        try:
            for owner, attr, wrapper in self._patches(program):
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
        assert_no_wrappers(program)
