"""Times scaled to a reference machine speed.

The benchmark shares its cores with other work, and the speed it gets
drifts by 20-50% over tens of seconds: identical rounds of one workload
read 1.8 s in one minute and 2.7 s in the next. A fixed calibration
kernel run beside every timed operation drifts with it (its time and the
operation's time keep a steady ratio), so each measured time is scaled by

    NOMINAL_KERNEL_S / (kernel time measured around the operation)

and reported as seconds at the reference speed, the speed at which the
kernel takes ``NOMINAL_KERNEL_S``. The kernel uses only numpy, scipy and
plain Python, never fflqr, so a change to the program cannot move it. It
mixes the kinds of work the program does: small dense solves in a loop
(the interior-point LP), a symmetric eigendecomposition (FPCA) and float
formatting and parsing (CSV I/O).
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

# Median kernel time on a 2-core cloud VM (Linux 6.18, numpy and OpenBLAS
# with one thread) when it was calm. Only a scale: it sets the unit.
NOMINAL_KERNEL_S = 0.02

_rng = np.random.default_rng(20211105)
_A = _rng.standard_normal((200, 8))
_Y = _rng.standard_normal(200)
_S = _rng.standard_normal((60, 60))
_S = _S @ _S.T
_FLOATS = _rng.standard_normal(2400).tolist()


def kernel_seconds() -> float:
    """Run the calibration kernel once and return its wall time."""
    t0 = time.perf_counter()
    for _ in range(100):
        w = np.abs(_Y) + 1.0
        c = scipy.linalg.cho_factor((_A.T * w) @ _A)
        x = scipy.linalg.cho_solve(c, _A.T @ _Y)
        r = _Y - _A @ x
    for _ in range(16):
        np.linalg.eigh(_S)
    text = ",".join(repr(v) for v in _FLOATS)
    total = sum(float(v) for v in text.split(","))
    elapsed = time.perf_counter() - t0
    if not np.isfinite(total + r[0]):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


class RefClock:
    """Times calls and scales each by calibration kernel runs around it.

    With a ``period``, a timer signal also runs the kernel every ``period``
    seconds of the call, so that a speed change inside a long call is seen;
    the time spent in those runs is taken out of the call's time.
    """

    def __init__(self, period: float = 0.0):
        self.period = period
        self._last = kernel_seconds()

    def measure(self, fn, *args):
        """Return ``(fn(*args), seconds measured, seconds at reference speed)``."""
        kernels = [self._last]
        paused = 0.0

        def on_alarm(signum, frame):
            nonlocal paused
            t = time.perf_counter()
            kernels.append(kernel_seconds())
            paused += time.perf_counter() - t

        if self.period:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._last = kernel_seconds()
        kernels.append(self._last)
        elapsed -= paused
        speed = sum(NOMINAL_KERNEL_S / k for k in kernels) / len(kernels)
        return out, elapsed, elapsed * speed
