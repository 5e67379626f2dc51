"""Host-speed normalisation of the end-to-end timings.

A shared host runs the same code at speeds that drift by tens of percent
within seconds to minutes, so raw times of identical work spread wider
than any useful bound.  A pass is therefore timed against a fixed
reference kernel that runs interleaved with it: a SIGALRM every
``INTERVAL`` seconds runs the kernel in the main thread, between two
bytecodes of the pass.  The pass's time between two samples, divided by
the kernel's mean time at both ends, counts that stretch in kernels;
times ``REFERENCE_S`` it is in seconds on a nominal host, on which one
kernel takes ``REFERENCE_S`` seconds.  Sampling time is excluded from
the pass.  The kernel is the library's kind of work (small numpy arrays
and Python floats) and never changes with the library, so a faster
program still reads faster, while a slower host does not.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL = 0.25
REFERENCE_S = 0.011  # nominal seconds of one kernel
KERNEL_STEPS = 2000


def kernel() -> float:
    """Fixed work: 4-vector numpy arithmetic and Python float maths."""
    a = np.arange(4.0)
    m = np.eye(4) * 0.5
    s = 0.0
    for i in range(KERNEL_STEPS):
        v = m @ a
        s += float(np.sqrt(v @ v)) * 0.5 + math.sin(i * 1e-3)
        a = a * 0.999 + 0.001
    return s


@dataclass(frozen=True)
class Sample:
    wall0: float
    cpu0: float
    wall1: float
    cpu1: float


def sample() -> Sample:
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return Sample(w0, c0, time.perf_counter(), time.process_time())


@dataclass
class Timing:
    """Raw and normalised wall and CPU seconds of one timed stretch."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float


def between(samples: list) -> Timing:
    """Time between consecutive samples, raw and in nominal seconds."""
    wall = cpu = raw_wall = raw_cpu = 0.0
    for a, b in zip(samples, samples[1:]):
        ref_wall = (a.wall1 - a.wall0 + b.wall1 - b.wall0) / 2
        ref_cpu = (a.cpu1 - a.cpu0 + b.cpu1 - b.cpu0) / 2
        raw_wall += b.wall0 - a.wall1
        raw_cpu += b.cpu0 - a.cpu1
        wall += (b.wall0 - a.wall1) / ref_wall
        cpu += (b.cpu0 - a.cpu1) / ref_cpu
    return Timing(wall * REFERENCE_S, cpu * REFERENCE_S, raw_wall, raw_cpu)


@dataclass
class Sampler:
    """Times one call with the kernel sampled at its ends and every INTERVAL."""

    samples: list = field(default_factory=list)

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def time(self, call):
        self.samples = [sample()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(sample())
        return result, between(self.samples)
