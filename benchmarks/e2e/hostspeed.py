"""Host-speed sampling: reference-speed seconds from a shared host.

On a shared virtual machine the same pass runs up to about 60 % slower
for minutes at a time, with user CPU time equal to wall time and almost
no steal time reported: other tenants slow the core down rather than
take it away.  No clock removes that, so :class:`HostClock` measures it
while the work runs.  A ``SIGPROF`` interval timer interrupts the
process every :data:`INTERVAL_S` of its CPU time, and the handler times
one slice of a fixed pure-Python loop (:func:`reference_slice`).  The
mean slice over a stretch of work, divided by :data:`REFERENCE_SLICE_S`,
is how much slower than on a quiet host the loop ran during it.  The
simulator suffers more than the loop from the same neighbours, so the
stretch's wall time, less the slices, is divided by that slowdown raised
to :data:`SENSITIVITY`: the result is its time at reference speed.

The slices have to be spread through the work, not run before or after
it: the host's speed changes within a second, and a mean over hundreds
of interleaved slices follows it where one separate calibration does
not.  The loop is the benchmark's own code, so a change to the
simulator moves the work's time and never the yardstick.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Tuple

__all__ = [
    "INTERVAL_S",
    "REFERENCE_SLICE_S",
    "SENSITIVITY",
    "reference_slice",
    "reference_seconds",
    "HostClock",
]

#: Process CPU time between two slices.  A slice takes about 0.4 ms, so
#: sampling costs about 2 % of the work's time, and is taken out of it.
INTERVAL_S = 0.02
#: The slice's duration on a quiet host: the fastest pass means seen on
#: a 2-core Xeon (Sapphire Rapids) KVM guest, rounded.  It only scales
#: the results: runs on one machine compare the same way whatever it is.
REFERENCE_SLICE_S = 400e-6
#: How much faster the simulator's time grows than the loop's as the
#: host gets busier: the slope of log(pass time) over log(mean slice)
#: was 1.11-1.22 in ten runs of each workload on a moderately busy
#: host, and 1.23-1.61 in ten more on a busier one.  Dividing by the
#: slowdown to this power left half to two thirds of the spread that
#: dividing by the plain slowdown left (see README.md).
SENSITIVITY = 1.2
_SLICE_ITERATIONS = 6000


def reference_slice() -> int:
    """The fixed interpreter work every slice times."""
    total = 0
    for i in range(_SLICE_ITERATIONS):
        total += i * i % 7
    return total


def reference_seconds(wall_s: float, slices: List[float]) -> Tuple[float, float]:
    """``(seconds at reference speed, slowdown)`` of a stretch of work.

    ``wall_s`` is the stretch's wall time, the slices taken during it
    included; ``slices`` are their durations.  The slowdown is the loop's
    (mean slice over :data:`REFERENCE_SLICE_S`); without a slice it is
    unknown and read as 1.
    """
    work_s = wall_s - sum(slices)
    slowdown = sum(slices) / len(slices) / REFERENCE_SLICE_S if slices else 1.0
    return work_s / slowdown**SENSITIVITY, slowdown


class HostClock:
    """Times reference slices interleaved with the enclosed work.

    ``with HostClock() as clock:`` installs the timer and its handler and
    removes both on exit.  Python runs signal handlers in the main
    thread only, so the ``with`` block must run there.  :meth:`mark` and
    :meth:`since` give the reference-speed time of any stretch inside it.
    """

    def __init__(self) -> None:
        #: Duration of every slice taken, in order.
        self.slices: List[float] = []
        self._previous: Optional[object] = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGPROF, self._take)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _take(self, _signum: int = 0, _frame: object = None) -> None:
        started = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - started)

    def mark(self) -> Tuple[float, int]:
        """The start of a stretch: the time and the slices taken so far."""
        return time.perf_counter(), len(self.slices)

    def since(self, mark: Tuple[float, int]) -> Tuple[float, float, float]:
        """``(wall seconds, reference seconds, slowdown)`` since ``mark``.

        The wall seconds leave out the slices.  A stretch too short to
        hold a slice gets one taken now, so its slowdown is measured too.
        """
        started, first = mark
        if len(self.slices) == first:
            self._take()
        wall_s = time.perf_counter() - started
        taken = self.slices[first:]
        ref_s, slowdown = reference_seconds(wall_s, taken)
        return wall_s - sum(taken), ref_s, slowdown
