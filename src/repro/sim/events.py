"""Discrete-event simulation core: a clock and an ordered event queue.

All times are in **microseconds** of simulated time.  Events scheduled for
the same instant fire in scheduling order (ties broken by a monotonically
increasing sequence number), which makes every run fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], Any]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call more than once)."""
        self.cancelled = True


class Simulator:
    """A minimal, deterministic discrete-event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        """Heap of ``(time, seq, handle)``: ``seq`` is unique, so heapq
        orders entries by comparing floats and ints, never handles."""
        self._seq = 0
        self._events_fired = 0
        self.probe: Callable[[float], Any] | None = None
        """Observer called as ``probe(now)`` after each fired event.
        Must be pure bookkeeping — it runs outside the event queue, so
        anything it does that schedules events or draws randomness
        would break the bit-identicality that observers exist to
        preserve.  The metrics timeline sampler installs itself here;
        None (the default) costs one load + branch per event."""

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_fired

    def schedule(self, delay: float, fn: Callable[[], Any]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], Any]) -> EventHandle:
        """Schedule ``fn`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = EventHandle(time, self._seq, fn)
        heapq.heappush(self._queue, (time, self._seq, handle))
        self._seq += 1
        return handle

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if queue is empty."""
        while self._queue:
            time, _seq, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = time
            self._events_fired += 1
            handle.fn()
            if self.probe is not None:
                self.probe(self.now)
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the queue drains (or ``max_events`` events fired)."""
        if max_events is None:
            while self.step():
                pass
            return
        if max_events < 0:
            raise ValueError(f"negative event budget {max_events}")
        for _ in range(max_events):
            if not self.step():
                return

    def run_until(self, time: float) -> None:
        """Run all events with a timestamp ``<= time``; advance now to it."""
        while self._queue:
            head_time, _seq, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head_time > time:
                break
            self.step()
        self.now = max(self.now, time)

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return sum(1 for _time, _seq, h in self._queue if not h.cancelled)
