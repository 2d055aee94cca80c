"""A reference clock for the host's speed.

The host this benchmark was built on gives each process a share of a
busy machine: the speed of its cores swings by 1.5x within seconds and
drifts over minutes, with CPU time equal to wall time (the slowdown is
in the core, not preemption).  No statistic over raw times inside one
run removes a slow minute.  So the benchmark times a fixed pure-Python
loop, the *reference*, between the trials it measures, and scales every
timing by how fast the reference ran next to it:

    reported = measured * REFERENCE_S / reference time next to it

A reported time is the time the work would have taken on a host where
the reference loop takes ``REFERENCE_S``.  The reference never calls
compcodes, so a change to compcodes moves only the measured side.

How much a slow stretch slows code depends on the code: tight
interpreter loops slow more than code that waits on memory.  So the
loop has two parts: dictionary look-ups and integer arithmetic on a
small table (about 40% of its time), and bisection over a sorted tuple
of strings too large for a core's private caches (about 60%).  A
reference of either part alone tracked the three workloads' speed
worse.  The loop allocates no container that the cyclic garbage
collector tracks, and its tables hold only ints and strings, which the
collector stops tracking, so it neither triggers nor pays for a
collection of the program's objects; they add about 7 MB to every
worker's resident set.
"""

from __future__ import annotations

import bisect
import statistics
import time

# About the time of one reference loop on the build host (Intel Xeon,
# 2 vCPUs, Python 3.11); the scale of every reported time.
REFERENCE_S = 0.007
# A sample is taken at a tick at most every GAP_S seconds.
GAP_S = 0.02

_KEYS = tuple(range(4096))
_TABLE = {k: (k * 2654435761) & 0xFFFF for k in _KEYS}
# 2**16 distinct 24-character strings (an odd multiplier is a bijection
# modulo 2**24) and 3000 of them to look up, spread over the tuple
_WORDS = tuple(sorted(format((k * 2654435761) % (1 << 24), "024b") for k in range(1 << 16)))
_PROBES = tuple(_WORDS[(k * 40503) % len(_WORDS)] for k in range(3000))


def reference_loop() -> int:
    acc = 0
    table = _TABLE
    for _ in range(3):
        for k in _KEYS:
            v = table[k]
            acc = (acc + v * (k | 1)) & 0xFFFFFFFF
            if v & 1:
                acc ^= k
    words = _WORDS
    for w in _PROBES:
        acc += bisect.bisect_left(words, w)
    return acc


def reference_times(n: int) -> list[float]:
    """Times of n reference loops run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


class RefClock:
    """Reference samples taken between trials, as (start, seconds)."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self._next = t1 + GAP_S

    def tick(self, *_args) -> None:
        """Take a sample if the last one is GAP_S old; call between trials."""
        if time.perf_counter() >= self._next:
            self.sample()

    def as_dict(self) -> dict:
        return {"starts": self.starts, "seconds": self.seconds}


def scaler(samples: dict):
    """A function mapping (start, seconds) of a trial to its reported time.

    Each trial is scaled by the mean of the last sample taken before it
    and the first taken after it; trials run only between ticks, so no
    sample falls inside one.
    """
    starts, seconds = samples["starts"], samples["seconds"]
    if not starts:
        raise ValueError("no reference samples")

    def scale(t0: float, sec: float) -> float:
        before = max(bisect.bisect_right(starts, t0) - 1, 0)
        after = min(bisect.bisect_left(starts, t0 + sec), len(starts) - 1)
        ref = statistics.fmean(seconds[before:after + 1])
        return sec * REFERENCE_S / ref

    return scale
