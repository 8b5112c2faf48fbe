"""CPU speed sampled while a job runs, to take machine drift out of timings.

On a shared machine the same job can take twice as long from one minute to
the next, because other tenants contend for the core.  A timer signal
interrupts the job every ``INTERVAL_S`` and times a fixed reference loop that
does not depend on frameforge: interpreter arithmetic plus small numpy
gathers and counts, the two kinds of work in frameforge's hot paths.  A
job's time scaled by ``REFERENCE_S / median(loop time)`` estimates what it
would have taken at the reference speed.  The loop runs between bytecodes of the main thread,
so the job's own code is untouched; the time spent in the handler is
subtracted from the job's time.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
#: Duration of one reference loop on an uncontended core of the machine the
#: benchmark was defined on (Xeon, Python 3.11, numpy 2.4).  It only sets
#: the scale of the scaled times.
REFERENCE_S = 250e-6
_TABLE = np.random.default_rng(0).integers(0, 64, (64, 64)).astype(np.int32)
_PICK = np.ix_(np.arange(0, 64, 3), np.arange(0, 64, 3))


def reference_loop() -> float:
    """Time one run of the fixed reference loop."""
    start = perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    for _ in range(12):
        np.bincount(_TABLE[_PICK].ravel(), minlength=64)
    return perf_counter() - start


class Pace:
    """Reference-loop samples taken during one timed block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    @contextmanager
    def sampling(self):
        """Sample the reference loop before and throughout the block."""
        self.samples = [reference_loop()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def in_block_s(self) -> float:
        """Time the handler spent inside the block (all but the first sample)."""
        return sum(self.samples[1:])

    def scale(self) -> float:
        """Factor that converts this block's time to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


def scale_now(loops: int = 40) -> float:
    """The same factor from reference loops run back to back, for a block
    that has just ended (set-up, which runs before numpy can be sampled)."""
    return REFERENCE_S / statistics.median(reference_loop() for _ in range(loops))
