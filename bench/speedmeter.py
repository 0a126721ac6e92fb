"""Speed of the CPU the benchmark runs on, sampled while an op runs.

On a shared VM each virtual CPU switches, independently and within seconds,
between speed levels up to 1.5x apart, and CPU time follows them.  Two runs
of the same code then differ by how long each spent at each level.  The
meter removes that: while an op runs, a SIGPROF timer fires every
``INTERVAL_S`` of process CPU time and the handler times a fixed pure-Python
reference kernel on the thread's own CPU clock.  Each sample stands for an
equal slice of the op's CPU time, so the op's CPU time at reference speed is

    scaled = (cpu - meter cost) * mean(REF_NOMINAL_S / sample)

i.e. CPU seconds on a machine where the kernel takes ``REF_NOMINAL_S``.  A
change to qrmt moves ``cpu``; it cannot move the kernel, which uses neither
qrmt, numpy nor scipy.

Signal handlers run in the main thread only, so the meter measures the CPU
the main thread runs on; run.py pins the process to one CPU so that pool
workers share it.  This module imports nothing heavy, so a fresh
interpreter can start the meter before importing qrmt.
"""
from __future__ import annotations

import signal
import time

# process CPU seconds between samples: about 20 samples per second of work
INTERVAL_S = 0.05
# iterations of the reference kernel: about 1 ms on the 2-vCPU VM the
# benchmark was built on, so the meter costs about 2% of CPU time
REF_LOOPS = 5000
# the reference speed: scaled seconds are CPU seconds on a machine where the
# kernel takes this long
REF_NOMINAL_S = 1e-3


def _step(a: float, b: int) -> float:
    return a + b * 0.5 if b & 1 else a - 1.0


def _add(a: float, b: float) -> float:
    return a + b


def reference_kernel() -> float:
    """Calls, branches and float arithmetic.  Of the kernels tried on the VM
    (integer, float and while loops, dict and list lookups, small numpy
    calls), this one slowed in step with qrmt's sampling, eigensolve and
    quadrature code: CPU time over 2 s windows scaled as the kernel's time
    to the power 0.95-1.04, where a plain integer loop gave 1.3-1.5."""
    s = 0.0
    for i in range(REF_LOOPS):
        s = _add(_step(s, i), 1.0)
    return s


class SpeedMeter:
    """``start()`` before an op and ``stop()`` after it, in the main thread."""

    def __init__(self):
        self.samples: list[float] = []
        self.cost = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = time.thread_time()
        reference_kernel()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.cost += dt

    def start(self) -> None:
        self.samples, self.cost = [], 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.siginterrupt(signal.SIGPROF, False)  # restart interrupted system calls
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """(speed factor, CPU seconds the samples cost) since ``start()``."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)  # a late signal must not end the process
        self._sample()
        factor = sum(REF_NOMINAL_S / s for s in self.samples) / len(self.samples)
        return factor, self.cost
