"""A clock that discounts the speed changes of a shared host.

A benchmark on a few cores of a shared host sees the whole machine run faster
or slower by up to a third for tens of seconds at a time, because of load
outside the benchmark's control; process CPU time follows wall time, so it
does not help.  ``SpeedProbe`` samples that speed while the program runs: a
one-shot ``SIGALRM`` timer interrupts the program every ``PERIOD_S`` seconds
of its own time, between two bytecodes of the main thread, and times one run
of a reference kernel.  The program's time since the previous probe is then
rescaled by ``r / d``, where ``d`` is the previous probe's duration and ``r``
the kernel's entry in ``REFERENCE_S``: the *normalised* seconds are the wall
seconds the same work would take on a machine where the reference kernel takes
``r``.  The kernel is part of the benchmark, not of the program, so a change to
the program moves normalised and wall time alike.

A host's slow phases do not slow every kind of code alike, so each workload is
timed against a kernel of the kind of work it does: ``lms``, interpreter work
and LMS-like updates and top-k selections on n = 1000 complex vectors, for the
Monte-Carlo experiments, and ``suite``, random sparse draws, perturbations and
top-k tests on n = 32 vectors where per-call overhead dominates, for the
verification suites.

Set-up time is spent in fresh processes, mostly in imports, and the kernel
timed around it does not follow it; run.py normalises it against a reference
process instead.

Probe time is excluded from both clocks.  Only untraced runs use a probe; a
traced run would count probe time in the spans the handler interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # program time between probes
# nominal time of each kernel; about its median on a 2-vCPU VM
REFERENCE_S = {"lms": 0.002, "suite": 0.0017}
_N = 1000
_KERNEL_STEPS = 60
_SUITE_DRAWS = 40


class _Kernel:
    """The reference kernels and their fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((16, _N)) + 1j * rng.standard_normal((16, _N))
        self.x32 = self.x[:, :32].copy()

    def lms(self) -> int:
        """One fixed unit of interpreter work and n = 1000 LMS-like updates."""
        acc = 0
        for i in range(_KERNEL_STEPS):
            top = np.argsort(np.abs(self.x32[i & 15]))[-4:]
            acc += int(top[0]) + sum(k * k for k in range(40))
            acc += len({k: k + i for k in range(20)})
        w = np.zeros(_N, complex)
        for i in range(100):
            xi = self.x[i & 15]
            w += 0.001 * ((1.0 + 0j) - np.vdot(xi, w)) * xi
            idx = np.argpartition(np.abs(w), _N - 20)[_N - 20:]
            w[idx] *= 1.0001
        return acc

    def suite(self) -> int:
        """One fixed unit of n = 32 random sparse draws and top-k tests."""
        rng = np.random.default_rng(7)  # the same draws on every run
        acc = 0
        for _ in range(_SUITE_DRAWS):
            w = np.zeros(32, complex)
            pos = rng.choice(32, size=4, replace=False)
            w[pos] = rng.uniform(0.3, 2.0, 4) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4))
            u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            x = w + u * (0.1 / np.linalg.norm(u))
            mag = x.real**2 + x.imag**2
            top = np.argpartition(mag, 28)[28:]
            acc += sum(1 for j in top if w[j] != 0)
            acc += int(np.count_nonzero(np.flatnonzero(mag > 0.5)))
        return acc


class SpeedProbe:
    """Context manager; ``clock()`` reads (wall, normalised) program seconds.

    Readings are monotone, and only their differences mean anything.
    """

    def __init__(self, kernel: str = "lms", period_s: float = PERIOD_S):
        self.period_s = period_s
        self.reference_s = REFERENCE_S[kernel]
        self.durations: list[float] = []
        self._kernel = getattr(_Kernel(), kernel)
        # (program s, normalised s, perf_counter() at the last probe's end,
        # reference_s / last probe's duration); replaced whole by each probe
        self._state = (0.0, 0.0, 0.0, 1.0)
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        raw, norm, since, scale = self._state
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.durations.append(end - start)
        gap = start - since
        self._state = (raw + gap, norm + gap * scale, end, self.reference_s / (end - start))
        if signum is not None:  # one-shot, so a slow kernel cannot nest probes
            signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._state = (0.0, 0.0, time.perf_counter(), 1.0)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        while True:  # retry if a probe ran between the two reads
            state = self._state
            now = time.perf_counter()
            if self._state is state:
                break
        raw, norm, since, scale = state
        return raw + now - since, norm + (now - since) * scale

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def wall_clock() -> tuple[float, float]:
    """The clock of a run without a probe: both readings are wall seconds."""
    t = time.perf_counter()
    return t, t
