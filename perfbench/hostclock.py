"""Host-speed calibration: wall seconds scaled to a reference host.

On a shared host the same Python code runs up to twice as slowly for
stretches of several seconds, which swamps any change worth measuring.
:class:`HostClock` runs a fixed probe — object allocation, attribute and
dict access, none of it the program's code — from a timer signal every
``INTERVAL_S`` seconds while campaigns run, and :meth:`HostClock.scaled`
converts a wall-clock interval into reference seconds: the interval,
minus the probes that ran inside it, times ``PROBE_REF_S`` over the
median probe time measured around it.  A program change moves the
scaled time as much as the wall time; a slow phase of the host moves
the probe too and cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Probe time on the reference host (2-core x86 VM, Python 3.11), in
#: seconds.  Fixed, so scaled times compare across commits and hosts.
PROBE_REF_S = 0.001
#: Seconds between probes, and probes per speed estimate (odd).
INTERVAL_S = 0.1
WINDOW = 7


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe() -> int:
    """The calibration workload (about ``PROBE_REF_S`` on the reference)."""
    table = {}
    acc = []
    for i in range(1600):
        cell = _Cell(i, i & 7)
        table[i & 1023] = cell
        acc.append(cell.a + table[(i * 7) & (i & 1023)].b)
    return sum(acc)


class HostClock:
    """Samples host speed from a timer signal while it is started."""

    def __init__(self) -> None:
        self.starts: List[float] = []  # probe start times
        self.probes: List[float] = []  # probe durations
        self._factors: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.probes.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; :meth:`scaled` may be called from now on."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)
        half = WINDOW // 2
        self._factors = [
            PROBE_REF_S / statistics.median(
                self.probes[max(0, k - half):k + half + 1]
            )
            for k in range(len(self.probes))
        ]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval ``[t0, t1]``.

        The speed factor is piecewise constant between probe starts:
        after probe ``k`` it is ``PROBE_REF_S`` over the median of the
        ``WINDOW`` probes around ``k``.  Time spent in probes is left
        out.
        """
        starts = self.starts
        k = max(0, bisect.bisect_right(starts, t0) - 1)
        total = 0.0
        t = t0
        while t < t1:
            end = starts[k + 1] if k + 1 < len(starts) else t1
            piece = min(end, t1) - t
            if starts[k] >= t0:  # probe k ran inside the interval
                piece -= min(self.probes[k], piece)
            total += max(piece, 0.0) * self._factors[k]
            t = min(end, t1)
            k += 1
        return total
