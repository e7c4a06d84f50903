"""A simulated CPU core with FIFO service and utilization accounting.

The paper pins one execution engine per hardware thread; throughput
saturates when that core is fully busy (Fig. 9a flattens at 4 concurrent
transactions per warehouse).  Modeling the core as a FIFO server whose
busy time accumulates lets that saturation emerge rather than be scripted.
"""

from __future__ import annotations

from typing import Any, Callable

from .events import Simulator


class Core:
    """One simulated core.  Work items run back-to-back in FIFO order."""

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._busy_until = 0.0
        self._busy_time = 0.0

    @property
    def busy_time(self) -> float:
        """Total microseconds of CPU consumed so far."""
        return self._busy_time

    @property
    def busy_until(self) -> float:
        """Simulated time at which all queued work will have finished."""
        return max(self._busy_until, self._sim.now)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall (simulated) time this core was busy."""
        elapsed = self._sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)

    def execute(self, cost: float, fn: Callable[[], Any]) -> float:
        """Queue ``cost`` microseconds of work, then run ``fn``.

        Returns the simulated completion time.  Zero-cost work still queues
        behind in-flight work (it needs the CPU, however briefly).
        """
        if not cost >= 0:       # a NaN would poison busy_until for good
            raise ValueError(f"negative or NaN CPU cost {cost}")
        start = max(self._busy_until, self._sim.now)
        finish = start + cost
        self._busy_until = finish
        self._busy_time += cost
        self._sim.schedule_at(finish, fn)
        return finish
