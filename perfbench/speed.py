"""The speed probe: how fast the machine runs right now, measured in process.

On a shared virtual machine the same code runs 20-45% slower for minutes
at a time while neighbours contend for the CPU and, above all, for its
caches and memory.  Process CPU time slows down with it (no time is
stolen from the guest), so it does not help.  The probe measures the
slowdown instead: a timer interrupts the process every ``INTERVAL_S``
seconds and runs a fixed piece of Python -- an arithmetic loop and
random lookups in a dict of tuples much larger than the L2 cache, the
two kinds of work the verifier does -- and records how long it took.

:meth:`Probe.at_reference` rescales a wall time measured over an
interval to the *reference speed*, the speed at which one probe takes
``REFERENCE_S``: it takes out the probe's own time inside the interval
and multiplies by ``REFERENCE_S`` over the mean probe duration around
the interval.  Program changes cannot move the probe, which is the
benchmark's own code, so they move the rescaled time as they move the
wall time.
"""

from __future__ import annotations

import bisect
import random
import resource
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
#: One probe's duration at the reference speed: about its median on the
#: 2-vCPU virtual machine the benchmark was written on, in a worker
#: pinned to one CPU.
REFERENCE_S = 0.0003
#: Intervals shorter than this borrow the probes around them.
MIN_WINDOW_S = 0.5

_TABLE_SIZE = 400_000
_LOOKUPS = 400
_LOOP = 1500


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class Probe:
    """A timer-driven speed probe for the calling process."""

    def __init__(self) -> None:
        started = perf_counter()
        before = _rss_mb()
        rng = random.Random(0)
        self._table = {(i, i * 7 % 1013, str(i % 977)): i
                       for i in range(_TABLE_SIZE)}
        keys = list(self._table)
        self._keys = [keys[rng.randrange(len(keys))] for _ in range(_LOOKUPS)]
        del keys
        #: Resident size of the probe's table, in MB.
        self.table_mb = _rss_mb() - before
        #: Seconds spent building the table.
        self.build_s = perf_counter() - started
        self._starts: list[float] = []
        self._durations: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        table = self._table
        for key in self._keys:
            total += table[key]
        self._starts.append(start)
        self._durations.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        #: When the probe started firing.
        self.ready = perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def at_reference(self, start: float, end: float, wall: float) -> float:
        """*wall*, measured over ``[start, end]``, at the reference speed."""
        middle = (start + end) / 2
        lo = bisect.bisect_left(self._starts,
                                min(start, middle - MIN_WINDOW_S / 2))
        hi = bisect.bisect_right(self._starts,
                                 max(end, middle + MIN_WINDOW_S / 2))
        if lo == hi:
            raise RuntimeError("the speed probe did not fire")
        inside = sum(d for t, d in zip(self._starts[lo:hi],
                                       self._durations[lo:hi])
                     if start <= t <= end)
        mean = statistics.fmean(self._durations[lo:hi])
        return (wall - inside) * REFERENCE_S / mean

    def summary(self) -> dict:
        durations = self._durations or [0.0]
        return {"ticks": len(self._durations),
                "median_s": statistics.median(durations),
                "busy_s": sum(self._durations)}
