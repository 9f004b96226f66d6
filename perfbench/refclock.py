"""A clock that reads in reference seconds.

The benchmark runs on a share of a shared host whose speed swings by up to
2x over seconds to tens of seconds, as other tenants load the same cores and
caches. A wall-clock time mixes the program's cost with those swings.
``RefClock`` measures the host's speed while the program runs: every
``TICK_S`` seconds a SIGALRM handler times a fixed reference block, a
mix of work like sslhop's that uses no sslhop code. Each stretch of the
program's wall time between two ticks is converted to reference seconds by
multiplying it with ``NOMINAL_S / r``, where ``r`` is the mean time of the
block at the two ticks around the stretch. The handler's own time is left
out. A reference second is thus a second of a host on which the reference
block takes ``NOMINAL_S``; a change to sslhop moves reference seconds as it
moves wall seconds, but a swing of the host moves them much less.
"""

from __future__ import annotations

import bisect
import mmap
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

TICK_S = 0.05
# about the block's median on the 2-core Xeon VM the bounds were set on
NOMINAL_S = 0.0014

_rng = np.random.default_rng(0)
_FIELD = _rng.random((12, 12, 12))
_KERNEL = _rng.random((27, 8))
_COVARIANCE = _rng.random((24, 24)) @ _rng.random((24, 24)).T
_LOOP = 5_000
_MAPPED = 1 << 19          # bytes


def reference_block() -> float:
    """Seconds the fixed reference work takes now. The work is a mix of
    what sslhop spends its time on, without sslhop: numpy on small arrays
    (padded sliding-window patches, a small matrix product, max pooling,
    sorting, masked reductions, a symmetric eigensolve), a Python loop, and
    page faults on freshly mapped memory. Each part alone tracks the host's
    swings for one workload and misses them for another; the host slows
    page faults most when it is busiest."""
    t0 = time.perf_counter()
    patches = np.lib.stride_tricks.sliding_window_view(
        np.pad(_FIELD, 1), (3, 3, 3)).reshape(-1, 27)
    out = patches @ _KERNEL
    out.reshape(12, 12, 12, 8)[::2, ::2, ::2].max(axis=-1)
    np.argsort(out[:, 0])
    np.einsum("ij,ij->i", out, out)
    out[out[:, 0] > out[0, 0]].mean(axis=0)
    np.linalg.eigh(_COVARIANCE)
    total = 0
    for i in range(_LOOP):
        total += i * i
    with mmap.mmap(-1, _MAPPED) as fresh:
        np.frombuffer(fresh, dtype=np.uint8)[::mmap.PAGESIZE] = 1
    return time.perf_counter() - t0


class RefClock:
    """Samples the host's speed while running; converts ``perf_counter``
    readings taken meanwhile to reference seconds once it has stopped."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # start, end, block s
        self._prefix: list[float] = []
        self._factor: list[float] = []

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        block = reference_block()
        self.ticks.append((start, time.perf_counter(), block))

    @contextmanager
    def running(self):
        """Tick from entry to exit; conversions work after the exit."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)   # restart system calls
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()
            self._index()

    def _index(self) -> None:
        # stretch j runs from the end of tick j-1 to the start of tick j
        blocks = [b for _, _, b in self.ticks]
        self._starts = [s for s, _, _ in self.ticks]
        self._factor = [0.0] + [2 * NOMINAL_S / (blocks[j - 1] + blocks[j])
                                for j in range(1, len(self.ticks))]
        self._prefix = [0.0]
        for j in range(1, len(self.ticks)):
            stretch = self.ticks[j][0] - self.ticks[j - 1][1]
            self._prefix.append(self._prefix[-1] + stretch * self._factor[j])

    def reading(self, t: float) -> float:
        """Reference seconds of program time from the first tick to ``t``."""
        k = bisect.bisect_right(self._starts, t)
        if k == 0:
            return 0.0
        if k == len(self.ticks):
            return self._prefix[-1]
        since = max(0.0, t - self.ticks[k - 1][1])
        return self._prefix[k - 1] + since * self._factor[k]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``perf_counter`` readings."""
        return self.reading(end) - self.reading(start)

    def block_median(self) -> float:
        """Median wall seconds of the reference block over the run."""
        return statistics.median(b for _, _, b in self.ticks)
