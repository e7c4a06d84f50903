"""Scheduler interface: cross-transaction admission decisions.

Everything below the scheduler attacks contention *inside* one
transaction (Chiller's regions, doorbell batching); the scheduler is
the first layer that looks *across* transactions.  Each execution
engine owns one scheduler instance; worker coroutines ask it for an
:class:`AdmitDecision` before executing a request and report every
attempt's :class:`~repro.txn.common.Outcome` back, so the scheduler can
serialize known-conflicting work instead of letting NO_WAIT burn CPU
and network on doomed lock acquisitions.

The contract is deliberately effect-free: ``admit``/``on_outcome`` are
plain calls that never touch the clock, and a decision tells the
*worker coroutine* what to yield (an :class:`~repro.sim.effects.Await`
on a wake-up signal, or a :class:`~repro.sim.effects.Sleep`).  That
keeps schedulers backend-neutral — the same instance runs unchanged on
the simulator, the asyncio loop, and inside each multiprocess worker —
and lets :class:`FifoScheduler` reproduce the historical raw retry loop
bit-for-bit: it makes no decision other than "run now" and injects no
effects at all.

Schedulers are engine-local by construction: on the multiprocess
backend there is no shared heap to coordinate through, so each engine
schedules the transactions *it* coordinates (pair with
``route_by_data`` to send conflicting requests to the same engine when
cross-engine serialization matters).  Instances are built per engine
from a :class:`SchedulerSpec`, normalized from the kind name that
crosses into mp worker processes inside ``RunConfig``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Hashable

from .._stats import report, stat
from ..sim.effects import Await, Effect, Signal, Sleep
from ..txn.common import Outcome, TxnRequest

SCHEDULERS = ("fifo", "conflict")
"""Scheduler kinds a run can select (``RunConfig.scheduler``)."""


class SchedAction(enum.Enum):
    RUN = "run"
    DEFER = "defer"
    SHED = "shed"


class SchedReason(enum.Enum):
    """Typed reason attached to every defer/shed decision.

    Recorded per reason in :class:`SchedulerStats` (and thus in
    ``Metrics``), so backpressure is visible in run reports instead of
    hiding inside silent retries.
    """

    CLASS_SERIALIZED = "class_serialized"
    """Another transaction of the same conflict class is in flight."""

    CLASS_COOLDOWN = "class_cooldown"
    """The class's serialization window is open after an abort spike."""

    CLASS_OVERLOAD = "class_overload"
    """The class's wait queue hit the admission-control cap."""

    DEADLINE_HOPELESS = "deadline_hopeless"
    """The predicted wait exceeds the arrival's whole deadline budget —
    executing it would only waste capacity on a guaranteed SLO miss."""

    PRIORITY_SHED = "priority_shed"
    """Shed to preserve capacity for higher-value work: the predicted
    wait exceeds this arrival's priority-scaled deadline slice, though
    a top-priority arrival would still have been admitted."""

    QUEUE_FULL = "queue_full"
    """The engine's open-loop in-flight cap was reached (the last-ditch
    queue bound behind the deadline predictor)."""


@dataclass
class AdmitDecision:
    """One admission verdict for one request.

    ``RUN`` tickets stay live for the whole request (including retries)
    and must be closed with :meth:`Scheduler.on_outcome`; ``DEFER``
    carries the effect to yield before re-admitting; ``SHED`` drops the
    request entirely.
    """

    action: SchedAction
    class_keys: tuple[Hashable, ...] = ()
    reason: SchedReason | None = None
    signal: Signal | None = None
    delay_us: float = 0.0
    deferred_at: float | None = None
    """When this DEFER was issued (None: not a deferral).  Optional
    rather than 0.0 — engines legitimately defer at sim time 0.0."""

    first_admit_at: float | None = None
    """Original admission time carried across re-admissions."""

    def wait_effect(self) -> Effect:
        """What the worker coroutine yields before re-admitting."""
        assert self.action is SchedAction.DEFER
        if self.signal is not None:
            return Await(self.signal)
        return Sleep(self.delay_us)


@dataclass
class SchedulerStats:
    """Per-engine scheduling counters, surfaced through ``Metrics``.

    Picklable; multiprocess workers ship their engines' stats back to
    the parent, which folds them by the rules declared here (queue
    depth folds as a max — the engines ran concurrently, their queues
    never shared a waiter).
    """

    scheduler: str = stat("fifo", fold="label")
    admitted: int = stat(timeline="admitted")
    completed: int = stat(timeline="completed", report=None)
    deferrals: int = stat(timeline="deferrals")
    sheds: int = stat(timeline="sheds")
    defer_reasons: dict[str, int] = stat(dict, report=None)
    shed_reasons: dict[str, int] = stat(dict, report=None)
    queue_depth: int = stat(fold="max", timeline="queue_depth", report=None)
    """Waiters deferred right now (ends at 0 for a drained run)."""

    max_queue_depth: int = stat(fold="max", timeline="max_queue_depth")
    queueing_delay_us: float = stat(0.0, report="mean_queueing_delay_us")
    """Total time admitted requests spent deferred before running
    (:meth:`summary` divides it into the mean it is reported as)."""

    queued_admissions: int = stat(report=None)
    """Admitted requests that were deferred at least once."""

    n_classes: int = stat(report="conflict_classes")
    """Distinct conflict classes this engine observed."""

    max_class_occupancy: int = stat(fold="max")
    """Peak concurrently-running transactions sharing one class."""

    window_widenings: int = 0
    """Times abort feedback widened a class's serialization window."""

    tenant_sheds: dict[str, dict[str, int]] = stat(dict)
    """Typed shed reasons per traffic tenant (open-loop runs only):
    ``{tenant: {reason: count}}``.  Empty on closed-loop runs."""

    def count_defer(self, reason: SchedReason) -> None:
        self.deferrals += 1
        self.queue_depth += 1
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        book = self.defer_reasons
        book[reason.value] = book.get(reason.value, 0) + 1

    def count_shed(self, reason: SchedReason,
                   tenant: str | None = None) -> None:
        self.sheds += 1
        book = self.shed_reasons
        book[reason.value] = book.get(reason.value, 0) + 1
        if tenant is not None:
            by_tenant = self.tenant_sheds.setdefault(tenant, {})
            by_tenant[reason.value] = by_tenant.get(reason.value, 0) + 1

    def mean_queueing_delay_us(self) -> float:
        if self.queued_admissions == 0:
            return 0.0
        return self.queueing_delay_us / self.queued_admissions

    def summary(self) -> dict:
        """Report fields for ``RunResult.perf_summary()``: the field
        dump, the queueing total replaced by its mean, and the tenant
        books only when there are any."""
        out = report(self)
        out["mean_queueing_delay_us"] = round(
            self.mean_queueing_delay_us(), 3)
        by_tenant = out.pop("tenant_sheds")
        if by_tenant:
            out["tenant_sheds"] = {tenant: dict(book) for tenant, book
                                   in sorted(by_tenant.items())}
        return out


Fingerprint = Callable[[TxnRequest], tuple[Hashable, ...]]
"""Estimated conflict classes of one request (empty: unconstrained)."""


class Scheduler:
    """Base class; engines call this surface, subclasses decide."""

    name = "base"

    def __init__(self) -> None:
        self.stats = SchedulerStats(scheduler=self.name)

    def admit(self, request: TxnRequest, now: float) -> AdmitDecision:
        """Fresh admission attempt; plain call, never touches the clock."""
        raise NotImplementedError

    def readmit(self, request: TxnRequest, prior: AdmitDecision,
                now: float) -> AdmitDecision:
        """Re-admission after a DEFER's wait effect completed.

        Carries the original admission timestamp forward so queueing
        delay measures the full wait, however many wake-ups it took.
        """
        return self._finish_readmit(self.admit(request, now), prior, now)

    def _finish_readmit(self, decision: AdmitDecision,
                        prior: AdmitDecision, now: float) -> AdmitDecision:
        """Thread the original admission time through and account the
        queueing delay once the request finally runs."""
        first = (prior.first_admit_at if prior.first_admit_at is not None
                 else prior.deferred_at)
        if first is None:
            first = now
        decision.first_admit_at = first
        if decision.action is SchedAction.RUN:
            self.stats.queued_admissions += 1
            self.stats.queueing_delay_us += now - first
        return decision

    def on_outcome(self, decision: AdmitDecision, outcome: Outcome,
                   now: float, will_retry: bool) -> None:
        """One attempt of an admitted request finished.

        ``will_retry=False`` closes the ticket (the request is done:
        committed, gave up, or hit an application abort).
        """
        if not will_retry:
            self.stats.completed += 1

    def retry_backoff_us(self, decision: AdmitDecision,
                         rng: random.Random, backoff_us: float) -> float:
        """Delay before retrying an aborted attempt.

        The base policy is the historical blind randomized backoff; it
        draws from ``rng`` exactly once so schedulers that keep it stay
        RNG-compatible with the raw loop.
        """
        return rng.uniform(0.0, backoff_us)

    # -- bookkeeping helpers for subclasses --------------------------------

    def _admitted(self, decision: AdmitDecision, now: float) -> None:
        self.stats.admitted += 1


class FifoScheduler(Scheduler):
    """Today's behavior as a scheduler: admit everything immediately.

    Selected explicitly (``--scheduler fifo``) or by default; the
    mediated dispatch loop with this scheduler is bit-identical to the
    historical raw retry loop — no extra effects, no extra RNG draws.
    """

    name = "fifo"

    def admit(self, request: TxnRequest, now: float) -> AdmitDecision:
        decision = AdmitDecision(SchedAction.RUN)
        self._admitted(decision, now)
        return decision


@dataclass(frozen=True)
class SchedulerSpec:
    """Recipe for building one engine's scheduler.

    :func:`as_spec` makes it from ``RunConfig.scheduler``'s kind name;
    each engine builds its own instance via :meth:`build` (schedulers
    hold live Signals and queues, so the *instances* never cross a
    process boundary).
    """

    kind: str = "fifo"

    def build(self, fingerprint: Fingerprint | None = None) -> Scheduler:
        if self.kind == "fifo":
            return FifoScheduler()
        if self.kind == "conflict":
            from .conflict import ConflictClassScheduler
            if fingerprint is None:
                raise ValueError(
                    "conflict scheduling needs a fingerprint function "
                    "(the harness derives one from the executor's "
                    "estimate_rw_sets hook)")
            return ConflictClassScheduler(fingerprint)
        raise ValueError(f"unknown scheduler kind {self.kind!r} "
                         f"(expected one of {SCHEDULERS})")


def as_spec(scheduler: str | None) -> SchedulerSpec:
    """Normalize ``RunConfig.scheduler`` (None or a kind name) into a
    :class:`SchedulerSpec`."""
    if scheduler is None:
        return SchedulerSpec(kind="fifo")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r} "
                         f"(expected one of {SCHEDULERS})")
    return SchedulerSpec(kind=scheduler)
