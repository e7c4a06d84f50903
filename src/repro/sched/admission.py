"""Open-loop admission control: which arrivals to shed under overload.

Under open-loop arrivals the queue grows whether or not anyone is
watching, so once the system saturates, the question stops being "how
many requests do we shed" and becomes "**which** requests do we shed"
(Prasaad et al.): drop the work least likely to be worth finishing —
arrivals whose deadline is already unpayable, then the lowest-priority
tenants — and keep the remaining capacity for the traffic that still
can meet its SLO.  :class:`DeadlineAdmission` is that front door; the
conflict scheduler's own per-class queue cap lives in
:mod:`repro.sched.conflict`.
"""

from __future__ import annotations

from .base import SchedReason, SchedulerStats

MAX_IN_FLIGHT = 4096
"""Hard in-flight cap per engine (the last-ditch queue bound)."""

INIT_GAP_US = 100.0
"""Prior for the completion-gap EWMA before any completion has been
observed."""

GAP_EWMA_ALPHA = 0.2
"""Weight of the latest completion gap in the drain-rate EWMA."""


class DeadlineAdmission:
    """Deadline- and priority-aware shedding for open-loop arrivals.

    One instance per engine.  The wait predictor is Little's-law flavored
    and deliberately self-measuring: an EWMA of the gap between request
    *completions* estimates how fast this engine currently drains work,
    so ``in_flight * gap`` approximates how long a new arrival would
    wait behind everything already admitted.  Under overload the gap
    converges to the engine's service limit while ``in_flight`` grows,
    so the predictor crosses deadlines exactly when queues start
    building — no offline capacity calibration needed, which matters
    because the same controller runs on simulated and wall-clock
    backends.

    Shedding is by value, most-worthless first:

    * ``QUEUE_FULL`` — the hard in-flight cap (:data:`MAX_IN_FLIGHT`).
    * ``DEADLINE_HOPELESS`` — the predicted wait exceeds the arrival's
      *remaining* deadline budget (scheduled arrival + deadline − now):
      even a top-priority request is shed rather than guaranteed-missed.
    * ``PRIORITY_SHED`` — the predicted wait exceeds the arrival's
      priority-scaled slice of its budget (``budget * priority /
      max_priority``).  Low-priority tenants hit this wall early, which
      is what reserves capacity for the high-priority tenant while the
      system rides past its knee.

    Every shed is recorded with its typed reason per tenant in the
    engine's :class:`~repro.sched.base.SchedulerStats`.
    """

    def __init__(self, stats: SchedulerStats, max_priority: float = 1.0):
        self.stats = stats
        self.max_priority = max(max_priority, 1e-9)
        self.gap_ewma_us = INIT_GAP_US
        self.in_flight = 0
        self._last_done_at: float | None = None

    def predicted_wait_us(self) -> float:
        """Estimated queueing delay for one more admission: everything
        in flight, drained at the currently observed completion rate."""
        return self.in_flight * self.gap_ewma_us

    def admit(self, arrival, now: float) -> SchedReason | None:
        """Shed verdict for ``arrival`` (an
        :class:`~repro.traffic.Arrival`), or None to admit.

        Dispatch lag counts against the budget: an arrival picked up
        late (the dispatcher itself queued behind a busy engine) has
        already spent part of its deadline.
        """
        reason = None
        if self.in_flight >= MAX_IN_FLIGHT:
            reason = SchedReason.QUEUE_FULL
        else:
            budget = arrival.deadline_us - (now - arrival.at)
            wait = self.predicted_wait_us()
            if wait > budget:
                reason = SchedReason.DEADLINE_HOPELESS
            elif wait > budget * (arrival.priority / self.max_priority):
                reason = SchedReason.PRIORITY_SHED
        if reason is not None:
            self.stats.count_shed(reason, tenant=arrival.tenant)
        return reason

    def on_start(self) -> None:
        """An admitted request entered execution."""
        self.in_flight += 1

    def on_finish(self, now: float) -> None:
        """An admitted request left the system (committed or gave up)."""
        self.in_flight -= 1
        if self._last_done_at is not None:
            gap = max(0.0, now - self._last_done_at)
            self.gap_ewma_us += GAP_EWMA_ALPHA * (gap - self.gap_ewma_us)
        self._last_done_at = now
