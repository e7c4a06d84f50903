"""Admission control: queue caps shed with typed reasons."""

from repro.sched import (ConflictClassScheduler, SchedAction, SchedReason,
                         SchedulerStats, admission, conflict)
from repro.txn.common import Outcome, TxnRequest


def req(*classes):
    return TxnRequest("t", {"classes": tuple(classes)}, home=0)


def fingerprint(request):
    return request.params["classes"]


def test_controller_sheds_at_cap_with_typed_reason(monkeypatch):
    monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", 2)
    sched = ConflictClassScheduler(fingerprint)
    assert sched.admit(req("hot"), 0.0).action is SchedAction.RUN
    for _ in range(2):
        assert sched.admit(req("hot"), 0.0).action is SchedAction.DEFER
    decision = sched.admit(req("hot"), 0.0)
    assert decision.action is SchedAction.SHED
    assert decision.reason is SchedReason.CLASS_OVERLOAD
    assert decision.class_keys == ("hot",)
    assert sched.stats.sheds == 1
    assert sched.stats.shed_reasons == {"class_overload": 1}


def test_scheduler_sheds_when_class_queue_is_full(monkeypatch):
    monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", 1)
    sched = ConflictClassScheduler(fingerprint)
    holder = sched.admit(req("hot"), 0.0)
    assert holder.action is SchedAction.RUN
    assert sched.admit(req("hot"), 0.0).action is SchedAction.DEFER
    shed = sched.admit(req("hot"), 0.0)
    assert shed.action is SchedAction.SHED
    assert shed.reason is SchedReason.CLASS_OVERLOAD
    # the shed request holds nothing: releasing the holder frees a slot
    sched.on_outcome(holder,
                     Outcome(txn_id=1, proc="t", committed=True),
                     1.0, will_retry=False)
    assert sched.admit(req("hot"), 1.0).action is SchedAction.RUN


# -- deadline/priority-aware admission (open-loop front door) ---------------

def arrival(at=0.0, deadline_us=1_000.0, priority=1.0, tenant="t"):
    from repro.traffic import Arrival
    return Arrival(at=at, tenant=tenant, deadline_us=deadline_us,
                   priority=priority)


def deadline_ctl():
    return admission.DeadlineAdmission(SchedulerStats(), max_priority=4.0)


def test_deadline_admits_when_wait_fits_budget():
    ctl = deadline_ctl()
    # empty system: predicted wait 0, everything fits
    assert ctl.admit(arrival(priority=0.5), now=0.0) is None


def test_hopeless_deadline_is_shed_even_at_top_priority():
    ctl = deadline_ctl()
    for _ in range(5):
        ctl.on_start()  # predicted wait: 5 * 100us = 500us
    verdict = ctl.admit(arrival(deadline_us=300.0, priority=4.0),
                        now=0.0)
    assert verdict is SchedReason.DEADLINE_HOPELESS


def test_low_priority_is_shed_before_high():
    ctl = deadline_ctl()
    for _ in range(5):
        ctl.on_start()  # predicted wait 500us
    # budget 1000us: gold (full budget) fits, standard (1000 * 1/4 =
    # 250us slice) does not
    assert ctl.admit(arrival(priority=4.0, tenant="gold"),
                     now=0.0) is None
    verdict = ctl.admit(arrival(priority=1.0, tenant="standard"),
                        now=0.0)
    assert verdict is SchedReason.PRIORITY_SHED
    assert ctl.stats.tenant_sheds["standard"] == {"priority_shed": 1}


def test_dispatch_lag_counts_against_budget():
    ctl = deadline_ctl()
    for _ in range(5):
        ctl.on_start()  # predicted wait 500us
    # scheduled at t=0 with a 1000us deadline, picked up at t=800:
    # only 200us of budget left
    verdict = ctl.admit(arrival(at=0.0, deadline_us=1_000.0,
                                priority=4.0), now=800.0)
    assert verdict is SchedReason.DEADLINE_HOPELESS


def test_in_flight_cap_sheds_queue_full(monkeypatch):
    monkeypatch.setattr(admission, "MAX_IN_FLIGHT", 2)
    ctl = deadline_ctl()
    ctl.on_start()
    ctl.on_start()
    verdict = ctl.admit(arrival(priority=4.0), now=0.0)
    assert verdict is SchedReason.QUEUE_FULL


def test_completion_gap_ewma_tracks_drain_rate(monkeypatch):
    monkeypatch.setattr(admission, "GAP_EWMA_ALPHA", 0.5)
    ctl = deadline_ctl()
    ctl.on_start()
    ctl.on_finish(now=100.0)   # first completion only seeds the clock
    assert ctl.gap_ewma_us == 100.0
    ctl.on_start()
    ctl.on_finish(now=120.0)   # observed gap 20us, EWMA moves halfway
    assert ctl.gap_ewma_us == 60.0
    assert ctl.in_flight == 0
