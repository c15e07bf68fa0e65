"""Simulated wall clock.

All "execution times" reported by the reproduction are simulated seconds
accumulated on a :class:`SimClock`.  Two accumulators exist:

* ``now`` — foreground time: I/O service time on the critical path plus
  modelled CPU time.  This is what corresponds to the paper's measured
  query execution times.
* ``background`` — time charged for work that the paper's storage system
  performs off the critical path (asynchronous dirty-block eviction and
  write-buffer flushes).  It is reported separately so experiments can
  verify that background traffic stays reasonable.
"""

from __future__ import annotations


class SimClock:
    """Monotonically increasing simulated clock (seconds, float).

    Foreground time is kept in two accumulators — I/O service time
    (:meth:`advance`) and modelled CPU time (:meth:`advance_cpu`) — summed
    on read.  Keeping them separate makes ``now`` independent of how CPU
    charges interleave with I/O charges, which is what lets the executor
    charge per-row CPU work a batch at a time without changing a query's
    simulated timing (DESIGN.md §7).
    """

    __slots__ = ("_now", "_cpu", "_background")

    def __init__(self) -> None:
        self._now = 0.0
        self._cpu = 0.0
        self._background = 0.0

    @property
    def now(self) -> float:
        """Current foreground simulated time in seconds."""
        return self._now + self._cpu

    @property
    def background(self) -> float:
        """Total background (asynchronous) device time in seconds."""
        return self._background

    @property
    def io_seconds(self) -> float:
        """Foreground I/O service time alone (profiling breakdowns)."""
        return self._now

    @property
    def cpu_seconds(self) -> float:
        """Foreground modelled-CPU time alone (profiling breakdowns)."""
        return self._cpu

    def advance(self, seconds: float) -> None:
        """Advance foreground I/O time; ``seconds`` must be non-negative."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds

    def advance_cpu(self, seconds: float) -> None:
        """Advance foreground modelled-CPU time (separate accumulator)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._cpu += seconds

    def charge_background(self, seconds: float) -> None:
        """Account asynchronous device time (not on the critical path)."""
        if seconds < 0:
            raise ValueError(f"cannot charge {seconds!r} background seconds")
        self._background += seconds

    def elapsed_since(self, start: float) -> float:
        """Foreground seconds elapsed since a previously sampled ``now``."""
        return self.now - start

    def reset(self) -> None:
        """Zero all accumulators (used between independent experiments)."""
        self._now = 0.0
        self._cpu = 0.0
        self._background = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.6f}, background={self._background:.6f})"
