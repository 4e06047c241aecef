"""Host-speed calibration: a fixed reference kernel sampled through a run.

On a 2-vCPU x86-64 container of a shared host, the speed of a process
changes by up to 1.9x within seconds, for wall and CPU time alike: the same
pure-Python loop, timed back to back, switches between about 4.3 ms and
7.5 ms.  A run of tens of seconds sees a different mix of fast and slow
spells each time, so raw sums and medians over a run differ by 20-30 %
between runs of the same code.  A kernel that only walks a large dict,
bound by memory rather than by the interpreter, barely slows in the slow
spells, so the kernel below is interpreter-bound like the library.

``HostSpeed`` times a small pure-Python kernel with the library's kind of
work (sorting state pairs, hashing them in set lookups, successor lookups in
a dict) from a ``SIGALRM`` handler every ``SAMPLE_EVERY_S`` seconds, also in
the middle of an operation.  The time the samples take is subtracted from
the operation they interrupt.  A time measured over an interval is
multiplied by ``KERNEL_NOMINAL_S`` over the mean kernel time sampled within
``WINDOW_S`` of that interval, so reported times are seconds at the host
speed where one kernel call takes ``KERNEL_NOMINAL_S``: about the fast
spells of that container.  The kernel is part of the benchmark, not of
mialib, so a change to mialib moves scaled times as it moves raw ones.  On
that container, ten runs each of ``operators``, ``files`` and ``laws``
gave spreads (interquartile range over median) of 0.02-0.07 for scaled
times where the raw ones spread 0.14-0.30.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from itertools import accumulate

# One kernel call on the 2-vCPU x86-64 container the benchmark was defined
# on, in its fast spells.  Only a unit: it scales every time alike.
KERNEL_NOMINAL_S = 0.00033
SAMPLE_EVERY_S = 0.02
# Spells last seconds; a window of a few samples smooths the kernel's jitter.
WINDOW_S = 0.1

_SUCC: dict = {}
for _i in range(300):
    _SUCC.setdefault((_i % 41, "ab"[_i % 3 == 0]), []).append(("s", _i * 7 % 41))
del _i


def kernel() -> int:
    """Fixed work: about ``KERNEL_NOMINAL_S`` seconds on a fast spell."""
    pairs = {(("s", p), ("s", q)) for p in range(41) for q in range(0, 41, 14)}
    hits = 0
    for p, q in sorted(pairs):
        for label in "ab":
            for t in _SUCC.get((p[1], label), ()):
                if (t, q) in pairs:
                    hits += 1
    return hits


class HostSpeed:
    """Samples the kernel while active; scales intervals by the samples."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        # Seconds all samples have taken so far.
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        cost = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.costs.append(cost)
        self.stolen += cost

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scales(self, intervals: list[tuple[float, float]]) -> list[float]:
        """For each ``(start, end)`` perf-counter interval, the factor that
        turns a time measured in it into seconds at the nominal speed: from
        the samples that start within ``WINDOW_S`` of the interval."""
        if not self.starts:
            raise RuntimeError("the host speed was never sampled")
        total = [0.0, *accumulate(self.costs)]
        out = []
        for start, end in intervals:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            # A long call into C delays the signal: take the nearest samples.
            while hi == lo:
                lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
            out.append(KERNEL_NOMINAL_S * (hi - lo) / (total[hi] - total[lo]))
        return out
