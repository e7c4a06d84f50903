"""Discrete-event simulation core: a clock and an ordered event queue.

All times are in **microseconds** of simulated time.  Events scheduled for
the same instant fire in scheduling order (ties broken by a monotonically
increasing sequence number), which makes every run fully deterministic.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable


class Simulator:
    """A minimal, deterministic discrete-event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], Any]]] = []
        """Heap of ``(time, seq, fn)``: ``seq`` is unique, so heapq
        orders entries by comparing floats and ints, never callables."""
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
        """Number of events executed so far."""
        return self._events_fired

    def schedule(self, delay: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn`` to run ``delay`` microseconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn`` at an absolute simulated time.

        Written as ``not time >= now`` so a NaN time is refused too: it
        would fire with the clock at NaN and then step it backwards.
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq
        heappush(self._queue, (time, seq, fn))
        self._seq = seq + 1

    def run(self) -> None:
        """Fire events in ``(time, seq)`` order until the queue drains.

        The cyclic collector is paused for the loop and the caller's
        state restored after it, whatever an event raises.  No event
        leaves a reference cycle behind (refcounting frees everything
        the loop drops), so a pass here would walk the whole database to
        free nothing; the one young pass over the loop's survivors runs
        on the first allocation after it.
        """
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            queue = self._queue
            while queue:
                time, _seq, fn = heappop(queue)
                self.now = time
                self._events_fired += 1
                fn()
                probe = self.probe
                if probe is not None:
                    probe(time)
        finally:
            if paused:
                gc.enable()
