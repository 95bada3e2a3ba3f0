"""Machine-speed probe, so that timings on a shared host can be compared.

On a host shared with other tenants the same pure-Python work runs up to
about 60% slower for stretches of seconds to minutes, and every item of a
run moves together.  The probe times a fixed pure-Python kernel (tuple
building, hashing, dict stores and reads spread over a few MB: what the
program itself spends its time on) every ``INTERVAL_S`` via SIGALRM, and
once right before and after each timed item.  An item's time divided by
the mean probe duration over its interval, times ``NOMINAL_S``, is its time
at nominal speed.

Timings are taken with ``clock()``, which leaves out the time spent in the
probe, so the probe adds nothing to an item's measured time or to a span.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

KERNEL_ITERATIONS = 2000
POOL_SIZE = 200_000
# Typical probe duration on the reference host (2-vCPU VM at 2.1 GHz, Python 3.11).
NOMINAL_S = 0.0013
INTERVAL_S = 0.05


class Kernel:
    """Objects spread over a few MB, read in a fixed random order: the probe
    has to miss the caches like the program does, or it misses most of the
    slow-down that other tenants' memory traffic causes."""

    def __init__(self) -> None:
        rng = random.Random(2)
        self.pool = [object() for _ in range(POOL_SIZE)]
        self.order = [rng.randrange(POOL_SIZE) for _ in range(KERNEL_ITERATIONS)]

    def __call__(self) -> int:
        pool = self.pool
        d: dict = {}
        s = 0
        for n, j in enumerate(self.order):
            o = pool[j]
            t = (n, id(o) & 7, "probe")
            s = (s + hash(t)) & 0xFFFF
            d[t] = o
        return s


class SpeedProbe:
    """Periodic and on-demand probe samples; use as a context manager."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in samples, kernel and bookkeeping
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent in the probe."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal arrived during an explicit sample
            return
        self._busy = True
        entered = time.perf_counter()
        self.kernel()
        self.durations.append(time.perf_counter() - entered)
        self.spent += time.perf_counter() - entered
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Start of a window of samples."""
        return len(self.durations)

    def slowness(self, start: int) -> float:
        """Take a closing sample; the mean probe duration since ``start``
        relative to nominal (above 1 means the host ran slow)."""
        self.sample()
        return statistics.fmean(self.durations[start:]) / NOMINAL_S
