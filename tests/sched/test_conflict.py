"""Conflict-class scheduling: serialization, wake-up, abort feedback."""

import pytest

from repro.sched import (ConflictClassScheduler, SchedAction, SchedReason,
                         conflict)
from repro.txn.common import AbortReason, Outcome, TxnRequest


def req(*classes):
    return TxnRequest("t", {"classes": tuple(classes)}, home=0)


def fingerprint(request):
    return request.params["classes"]


def make():
    return ConflictClassScheduler(fingerprint)


@pytest.fixture
def spiky(monkeypatch):
    """Feedback at full alpha: one contention abort spikes the EWMA."""
    monkeypatch.setattr(conflict, "ABORT_EWMA_ALPHA", 1.0)
    monkeypatch.setattr(conflict, "ABORT_SPIKE_THRESHOLD", 0.5)
    return monkeypatch


def outcome(committed=True, reason=None):
    return Outcome(txn_id=1, proc="t", committed=committed, reason=reason)


def test_same_class_serializes_and_wakes_in_fifo_order():
    sched = make()
    first = sched.admit(req("hot"), 0.0)
    assert first.action is SchedAction.RUN
    second = sched.admit(req("hot"), 1.0)
    assert second.action is SchedAction.DEFER
    assert second.reason is SchedReason.CLASS_SERIALIZED
    assert second.signal is not None and not second.signal.fired

    # the holder finishing fires the waiter's signal
    sched.on_outcome(first, outcome(), 5.0, will_retry=False)
    assert second.signal.fired
    woken = sched.readmit(req("hot"), second, 5.0)
    assert woken.action is SchedAction.RUN
    assert sched.stats.queued_admissions == 1
    assert sched.stats.queueing_delay_us == 4.0  # deferred 1.0 -> ran 5.0


def test_distinct_classes_run_in_parallel():
    sched = make()
    assert sched.admit(req("a"), 0.0).action is SchedAction.RUN
    assert sched.admit(req("b"), 0.0).action is SchedAction.RUN
    assert sched.stats.deferrals == 0
    assert sched.stats.n_classes == 2


def test_unfingerprintable_requests_run_unconstrained():
    sched = make()
    for _ in range(4):
        assert sched.admit(req(), 0.0).action is SchedAction.RUN
    assert sched.stats.n_classes == 0


def test_multi_class_admission_is_all_or_nothing():
    sched = make()
    held = sched.admit(req("a"), 0.0)
    assert held.action is SchedAction.RUN
    # wants a AND b; a is busy -> defers without holding b
    both = sched.admit(req("a", "b"), 0.0)
    assert both.action is SchedAction.DEFER
    # b must still be free for others
    assert sched.admit(req("b"), 0.0).action is SchedAction.RUN


def test_retrying_holder_keeps_its_slot():
    sched = make()
    holder = sched.admit(req("hot"), 0.0)
    sched.on_outcome(holder, outcome(False, AbortReason.LOCK_CONFLICT),
                     1.0, will_retry=True)
    assert sched.admit(req("hot"), 1.5).action is SchedAction.DEFER
    sched.on_outcome(holder, outcome(), 2.0, will_retry=False)
    assert sched.admit(req("hot"), 2.5).action is SchedAction.RUN


def test_abort_spike_widens_window_and_cooldown_defers(spiky):
    spiky.setattr(conflict, "WINDOW_INIT_US", 50.0)
    sched = make()
    holder = sched.admit(req("hot"), 0.0)
    # a contention abort at full alpha spikes the ewma instantly
    sched.on_outcome(holder, outcome(False, AbortReason.LOCK_CONFLICT),
                     1.0, will_retry=False)
    assert sched.stats.window_widenings == 1
    cooled = sched.admit(req("hot"), 2.0)
    assert cooled.action is SchedAction.DEFER
    assert cooled.reason is SchedReason.CLASS_COOLDOWN
    assert cooled.delay_us > 0.0
    # after the window passes, admissions flow again
    reopened = sched.readmit(req("hot"), cooled, 51.0 + 1.0)
    assert reopened.action is SchedAction.RUN


def test_commits_shrink_the_window_back(spiky):
    spiky.setattr(conflict, "WINDOW_INIT_US", 40.0)
    sched = make()
    holder = sched.admit(req("hot"), 0.0)
    sched.on_outcome(holder, outcome(False, AbortReason.LOCK_CONFLICT),
                     1.0, will_retry=True)
    state = sched._classes["hot"]
    assert state.window_us == 40.0
    # alpha=1.0: one commit zeroes the ewma, halving then clearing
    sched.on_outcome(holder, outcome(), 2.0, will_retry=False)
    assert state.window_us == 0.0


def test_window_caps_at_max(spiky):
    spiky.setattr(conflict, "WINDOW_INIT_US", 30.0)
    spiky.setattr(conflict, "WINDOW_MAX_US", 60.0)
    sched = make()
    holder = sched.admit(req("hot"), 0.0)
    for t in range(4):
        sched.on_outcome(holder,
                         outcome(False, AbortReason.LOCK_CONFLICT),
                         float(t), will_retry=True)
    assert sched._classes["hot"].window_us <= 60.0


def test_stats_track_occupancy_and_depth():
    sched = make()
    assert sched.stats.max_class_occupancy == 0
    a = sched.admit(req("hot"), 0.0)
    assert a.action is SchedAction.RUN
    assert sched.stats.max_class_occupancy == 1
    deferred = sched.admit(req("hot"), 0.0)
    assert deferred.action is SchedAction.DEFER
    assert sched.stats.queue_depth == 1
    assert sched.stats.max_queue_depth == 1
    sched.on_outcome(a, outcome(), 1.0, will_retry=False)
    assert sched.readmit(req("hot"), deferred, 1.0).action is SchedAction.RUN
    assert sched.stats.queue_depth == 0
