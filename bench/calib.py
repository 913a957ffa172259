"""Calibrated CPU time: how long a piece of work would take on the reference
machine.

A shared machine changes the speed of its cores by up to a factor of two,
from one tenth of a second to the next and in phases that can outlast a run,
and the CPU time of a process follows it as much as its wall time does.  So
the benchmark times a fixed reference kernel next to its work, and during
it, and scales the work's CPU time by ``REFERENCE_S`` over the mean of those
reference times.  There are two kernels, one for descent and one for time
stepping, because contention does not slow the two alike.  The kernel is none of solwave's code, so no change to the
package moves it.  Only numpy is imported here, so a worker can start
sampling before it imports solwave.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import fmean
from time import thread_time

import numpy as np
# bound here, not looked up as np.fft: numpy loads its fft module lazily, and
# a sample taken while that import runs would start it again
from numpy.fft import fft, ifft

# CPU seconds of reference_s(kind) on an idle core of the reference machine
# (a 2-CPU Intel Xeon KVM guest, Python 3.11, numpy 2.4): calibrated times
# are in seconds at that machine's speed
REFERENCE_S = {"descent": 0.0029, "stepping": 0.0033}
# CPU seconds between two reference samples taken inside a stage
SAMPLE_EVERY_S = 0.05
_REF_Z = np.exp(2j * np.pi * np.random.default_rng(0).random(8192))
_REF_Y = _REF_Z.real[:1024].copy()
# a wave with round-off tails: x ** 3.0 takes libm's slow path on them, as it
# does in the nonlinearity's primitive during a descent
_REF_X = np.concatenate([np.sin(np.linspace(0.0, 3.0, 4096)),
                         1e-120 * np.cos(np.arange(4096.0))])


def reference_s(kind: str) -> float:
    """CPU time of a fixed kernel shaped like solwave's work: complex FFT
    pairs at N = 1024 and 8192, cubes with the slow pow path, elementwise
    work on short arrays and a Python loop.

    Contention slows time stepping more than the descent: 0.34 against 0.25
    in log time between the slow and fast halves of a contended minute,
    while the cubes slow by 0.10 and short-array work by 0.43.  So the
    ``descent`` kernel takes a second cube and the ``stepping`` kernel more
    short-array work, which brings each within 0.03 of its kind of stage."""
    t0 = thread_time()
    # the samples run inside solwave's code, whatever floating-point error
    # state it has set
    with np.errstate(all="ignore"):
        x = _REF_Z[:1024]
        for _ in range(20):
            x = ifft(fft(x) * 0.5)
            x = x + 0.1 * x * x
        ifft(fft(_REF_Z) * 0.3)
        _REF_X ** 3.0
        if kind == "descent":
            _REF_X ** 3.0
        else:
            for _ in range(280):
                _REF_Y * 0.5 + _REF_Y * _REF_Y
    s = 0
    for i in range(15000):
        s += i * i
    return thread_time() - t0


class Sampler:
    """Reference samples taken during a stage: a SIGPROF timer interrupts
    the stage every SAMPLE_EVERY_S of CPU time and times the reference
    kernel, so the samples see the core's speed over the whole stage.  The
    CPU time spent in the handler is kept apart, to be taken off the
    stage's time.  Times are the thread's CPU clock: while a process CPU
    timer is armed, the process clock only advances in scheduler ticks."""

    def __init__(self, kind: str):
        self.kind = kind
        self.refs: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = thread_time()
        self.refs.append(reference_s(self.kind))
        self.spent += thread_time() - t0

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, old)


def calibrated(cpu_s: float, kind: str, refs: list[float]) -> float:
    """CPU seconds at the reference machine's speed, from reference times of
    that kind of kernel."""
    return cpu_s * REFERENCE_S[kind] / fmean(refs)
