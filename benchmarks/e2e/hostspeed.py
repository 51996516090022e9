"""Host-speed compensation: timings in seconds of a calm reference host.

The benchmark runs on small shared machines whose speed drifts by a
tenth to a third over minutes as other tenants load the same cores.  The
drift moves every timing alike, so ten runs spread by as much as the
regressions the benchmark must catch.  :class:`HostSpeed` measures the
drift and takes it out.

Between operations, never inside a timed one, it times a fixed
reference computation: :func:`reference_work`, two 512-bit modular
exponentiations (one CRT private operation of a 1024-bit RSA key;
modular exponentiation dominates both the drone and the auditor) and a
short interpreted loop (dict, float and tuple work, like the rest of
the program).  The
host's *slowdown* is the median cost of the last few references over
``REFERENCE_S``, the reference's median cost on a calm host.  A
compensated duration is the measured wall duration over the slowdown: the
time the same work would take on that calm host.

The reference is benchmark code and calls nothing in ``src/``, so a
change to the program moves the compensated times by the same share as
it moves the wall times.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

#: Median cost of :func:`reference_work` on a calm 2-vCPU x86-64 host
#: (Python 3.11); defines the compensated time unit.
REFERENCE_S = 0.0016
#: References taken at most this often while work runs.
INTERVAL_S = 0.2
#: The slowdown is the median of this many most recent references.
WINDOW = 5

_MODULI = ((1 << 511) + 0x2F3B, (1 << 511) + 0x6D1F)
_EXPONENT = (1 << 510) + 0x5A5A5A5A5A5A5A5B
_BASE = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321


def reference_work() -> float:
    """The fixed computation whose cost tracks the host's speed."""
    acc = sum(pow(_BASE, _EXPONENT, m) & 0xFF for m in _MODULI)
    table: dict[int, tuple[float, float]] = {}
    total = 0.0
    for i in range(1000):
        x, y = table.get(i & 31, (0.5, 1.5))
        total += math.hypot(x, y)
        table[i & 31] = (y, x + i * 0.25)
    return acc + total


class HostSpeed:
    """Running estimate of the host's slowdown against the calm host."""

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self.costs: list[float] = []
        self._last = -math.inf

    def measure(self, count: int = 1) -> None:
        """Time the reference ``count`` times."""
        for _ in range(count):
            started = time.perf_counter()
            reference_work()
            cost = time.perf_counter() - started
            self._recent.append(cost)
            self.costs.append(cost)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Between operations: measure when the last reference is stale."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    @property
    def slowdown(self) -> float:
        if not self._recent:
            self.measure(WINDOW)
        return statistics.median(self._recent) / REFERENCE_S

    def scale(self, wall_s: float) -> float:
        """``wall_s`` as the calm host would have taken it."""
        return wall_s / self.slowdown

    def timed_call(self, work):
        """Run one long call; returns its value and compensated duration.

        Nothing can be measured inside the call, so fresh references are
        taken right before and right after it and their slowdowns
        averaged.
        """
        self.measure(WINDOW)
        before = self.slowdown
        started = time.perf_counter()
        value = work()
        wall = time.perf_counter() - started
        self.measure(WINDOW)
        return value, wall / statistics.fmean((before, self.slowdown))

    def run_slowdown(self) -> float:
        """Median slowdown over every reference taken so far."""
        if not self.costs:
            return 1.0
        return statistics.median(self.costs) / REFERENCE_S
