"""Conflict-class scheduling: serialize within, parallelize across.

Prasaad et al. ("Improving High Contention OLTP Performance via
Transaction Scheduling") group transactions whose write sets intersect
into *conflict classes* and run each class serially while classes run
in parallel: under NO_WAIT, two transactions racing for the same hot
record means one of them burns a full round of lock acquisitions just
to abort, so scheduling the loser behind the winner converts wasted
work into queueing delay.

Here a class key is one record of the request's write set as known
before it runs (its procedure's per-layout write slots with exact
:class:`~repro.analysis.keys.ParamKey` keys,
:meth:`~repro.analysis.StoredProcedure.write_keys`); a request
belongs to every class its writes touch and is admitted only when none
of them is held (all-or-nothing, so partial holds can never deadlock);
a class admits one transaction at a time.  Unestimatable requests (derived keys without hints) simply
run unconstrained — the scheduler degrades to FIFO, never blocks on
what it cannot see.

Abort feedback: when a class keeps aborting *despite* serialization
(readers racing its writers, or cross-engine conflicts this engine
cannot see), its serialization window widens — after the current
holder releases, the class stays closed for ``window_us`` so the
record's lock word actually goes quiet before the next admission.
Commits shrink the window back.  The cooldown trades throughput for
wasted attempts (EXPERIMENTS.md, "Cooldown ablation").

Backpressure: a class whose queue already holds
:data:`MAX_QUEUE_PER_CLASS` waiters **sheds** further admissions with
a typed :class:`~repro.sched.base.SchedReason` recorded in the stats,
instead of silently joining a hopeless queue — the optimistic-abort
argument of Jepsen et al.: when a transaction is doomed, abort it
*early*, before it spends round trips.  Shed requests never execute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from ..sim.effects import Signal
from ..txn.common import AbortReason, Outcome, TxnRequest
from .base import (AdmitDecision, Fingerprint, SchedAction, SchedReason,
                   Scheduler)

CONTENTION_ABORTS = frozenset({AbortReason.LOCK_CONFLICT,
                               AbortReason.VALIDATION,
                               AbortReason.INNER_CONFLICT})
"""Abort reasons that feed the per-class abort-rate feedback loop."""

MAX_QUEUE_PER_CLASS = 16
"""Waiters a class may park before further admissions are shed."""

WINDOW_INIT_US = 20.0
"""First serialization window opened when a class's abort rate spikes;
later spikes double it up to :data:`WINDOW_MAX_US`."""

WINDOW_MAX_US = 400.0
"""Widest a class's serialization window grows."""

ABORT_EWMA_ALPHA = 0.25
"""Weight of the latest attempt in a class's abort-rate EWMA."""

ABORT_SPIKE_THRESHOLD = 0.5
"""Abort-rate EWMA at which a class's window widens (half of it lets
commits shrink the window again)."""


@dataclass
class _ClassState:
    """One conflict class's live scheduling state."""

    held: bool = False
    """One transaction of this class is admitted and not yet done."""

    waiters: deque = field(default_factory=deque)  # of Signal
    abort_ewma: float = 0.0
    window_us: float = 0.0
    reopen_at: float = 0.0


class ConflictClassScheduler(Scheduler):
    """Serialize admissions within a conflict class, parallelize across."""

    name = "conflict"

    def __init__(self, fingerprint: Fingerprint):
        super().__init__()
        self.fingerprint = fingerprint
        self._classes: dict[Hashable, _ClassState] = {}

    # -- admission ---------------------------------------------------------

    def admit(self, request: TxnRequest, now: float,
              keys: tuple[Hashable, ...] | None = None) -> AdmitDecision:
        if keys is None:
            keys = self._request_classes(request)
        if not keys:
            decision = AdmitDecision(SchedAction.RUN)
            self._admitted(decision, now)
            return decision
        states = [self._class_state(key) for key in keys]
        for key, state in zip(keys, states):
            if state.held:
                return self._hold(keys, key, state, now)
        for key, state in zip(keys, states):
            if now < state.reopen_at:
                return self._cooldown(keys, state, now)
        for state in states:
            state.held = True
        self.stats.max_class_occupancy = 1
        decision = AdmitDecision(SchedAction.RUN, class_keys=keys)
        self._admitted(decision, now)
        return decision

    def _hold(self, keys: tuple[Hashable, ...], busy_key: Hashable,
              state: _ClassState, now: float) -> AdmitDecision:
        if len(state.waiters) >= MAX_QUEUE_PER_CLASS:
            decision = AdmitDecision(SchedAction.SHED,
                                     class_keys=(busy_key,),
                                     reason=SchedReason.CLASS_OVERLOAD)
            self.stats.count_shed(decision.reason)
            return decision
        signal = Signal()
        state.waiters.append(signal)
        decision = AdmitDecision(SchedAction.DEFER, class_keys=keys,
                                 reason=SchedReason.CLASS_SERIALIZED,
                                 signal=signal, deferred_at=now)
        self.stats.count_defer(decision.reason)
        return decision

    def _cooldown(self, keys: tuple[Hashable, ...], state: _ClassState,
                  now: float) -> AdmitDecision:
        decision = AdmitDecision(SchedAction.DEFER, class_keys=keys,
                                 reason=SchedReason.CLASS_COOLDOWN,
                                 delay_us=max(state.reopen_at - now, 0.1),
                                 deferred_at=now)
        self.stats.count_defer(decision.reason)
        return decision

    def readmit(self, request: TxnRequest, prior: AdmitDecision,
                now: float) -> AdmitDecision:
        self.stats.queue_depth -= 1
        # the prior decision already carries the fingerprint; waking up
        # (the hottest path under skew) must not re-instantiate the
        # procedure just to recompute identical class keys
        return self._finish_readmit(
            self.admit(request, now, keys=prior.class_keys), prior, now)

    # -- feedback ----------------------------------------------------------

    def on_outcome(self, decision: AdmitDecision, outcome: Outcome,
                   now: float, will_retry: bool) -> None:
        alpha = ABORT_EWMA_ALPHA
        contended = (not outcome.committed
                     and outcome.reason in CONTENTION_ABORTS)
        for key in decision.class_keys:
            state = self._classes[key]
            state.abort_ewma += alpha * ((1.0 if contended else 0.0)
                                         - state.abort_ewma)
            if contended:
                self._maybe_widen(state)
            elif (outcome.committed and state.window_us > 0.0
                  and state.abort_ewma < ABORT_SPIKE_THRESHOLD / 2):
                state.window_us /= 2.0
                if state.window_us <= WINDOW_INIT_US / 2:
                    state.window_us = 0.0
        if not will_retry:
            self._release(decision, now)
        super().on_outcome(decision, outcome, now, will_retry)

    def _maybe_widen(self, state: _ClassState) -> None:
        if state.abort_ewma < ABORT_SPIKE_THRESHOLD:
            return
        widened = (WINDOW_INIT_US if state.window_us == 0.0
                   else min(state.window_us * 2.0, WINDOW_MAX_US))
        if widened > state.window_us:
            state.window_us = widened
            self.stats.window_widenings += 1
        state.abort_ewma /= 2.0  # spike consumed; demand fresh evidence

    def _release(self, decision: AdmitDecision, now: float) -> None:
        for key in decision.class_keys:
            state = self._classes[key]
            state.held = False
            if state.window_us > 0.0:
                state.reopen_at = now + state.window_us
            self._wake_all(state)

    def _wake_all(self, state: _ClassState) -> None:
        """Wake every waiter, FIFO.  The first to re-admit wins the
        class; the rest re-enqueue in wake order (their queueing delay
        keeps accumulating from the original admission)."""
        waiters, state.waiters = state.waiters, deque()
        for signal in waiters:
            signal.fire()

    # -- fingerprinting ----------------------------------------------------

    def _request_classes(self, request: TxnRequest) -> tuple[Hashable, ...]:
        """Sorted, deduplicated class keys of one request.

        Sorting makes multi-class admission order deterministic (and
        matches release order); dedup keeps a request from holding the
        same class twice."""
        return tuple(sorted(set(self.fingerprint(request)), key=repr))

    def _class_state(self, key: Hashable) -> _ClassState:
        state = self._classes.get(key)
        if state is None:
            state = _ClassState()
            self._classes[key] = state
            self.stats.n_classes += 1
        return state
