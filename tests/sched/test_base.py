"""Scheduler interface, FIFO baseline, stats, and spec plumbing."""

import pickle
import random

import pytest

from repro._stats import folded
from repro.sched import (FifoScheduler, SchedAction, SchedulerSpec,
                         SchedulerStats, as_spec)
from repro.txn.common import TxnRequest


def req(**params):
    return TxnRequest("t", params, home=0)


def test_fifo_always_runs_immediately_without_effects():
    sched = FifoScheduler()
    for i in range(5):
        decision = sched.admit(req(i=i), now=float(i))
        assert decision.action is SchedAction.RUN
        assert decision.signal is None and decision.delay_us == 0.0
    assert sched.stats.admitted == 5
    assert sched.stats.deferrals == 0
    assert sched.stats.sheds == 0
    assert sched.stats.queue_depth == 0


def test_fifo_retry_backoff_matches_raw_loop_rng_draw():
    """The mediated loop must consume the worker RNG exactly like the
    historical raw loop: one uniform draw per retry."""
    sched = FifoScheduler()
    decision = sched.admit(req(), 0.0)
    a, b = random.Random(7), random.Random(7)
    drawn = sched.retry_backoff_us(decision, a, 10.0)
    assert drawn == b.uniform(0.0, 10.0)
    assert a.random() == b.random()  # exactly one draw consumed


def test_stats_merge_sums_and_maxes():
    a = SchedulerStats(scheduler="conflict", admitted=3, deferrals=2,
                       sheds=1, queueing_delay_us=10.0,
                       queued_admissions=2, max_queue_depth=4,
                       n_classes=5, max_class_occupancy=1,
                       window_widenings=2,
                       defer_reasons={"class_serialized": 2},
                       shed_reasons={"class_overload": 1})
    b = SchedulerStats(scheduler="conflict", admitted=1, deferrals=1,
                       max_queue_depth=2, queueing_delay_us=5.0,
                       queued_admissions=1, n_classes=2,
                       defer_reasons={"class_cooldown": 1})
    merged = folded(SchedulerStats, [a, b])
    assert merged.admitted == 4
    assert merged.deferrals == 3
    assert merged.sheds == 1
    assert merged.max_queue_depth == 4
    assert merged.queueing_delay_us == 15.0
    assert merged.mean_queueing_delay_us() == 5.0
    assert merged.n_classes == 7
    assert merged.defer_reasons == {"class_serialized": 2,
                                    "class_cooldown": 1}
    assert merged.summary()["scheduler"] == "conflict"


def test_stats_and_spec_are_picklable():
    """Both cross the mp process boundary (spec out, stats back)."""
    spec = SchedulerSpec(kind="conflict")
    stats = SchedulerStats(scheduler="conflict", admitted=7,
                           defer_reasons={"class_serialized": 3})
    spec2 = pickle.loads(pickle.dumps(spec))
    stats2 = pickle.loads(pickle.dumps(stats))
    assert spec2 == spec
    assert stats2.admitted == 7
    assert stats2.defer_reasons == {"class_serialized": 3}


def test_as_spec_normalizes_none_name_and_spec():
    assert as_spec(None).kind == "fifo"
    assert as_spec("conflict").kind == "conflict"
    # a name only: a spec is not one
    for wrong in ("lifo", SchedulerSpec(kind="conflict")):
        with pytest.raises(ValueError, match="unknown scheduler"):
            as_spec(wrong)


def test_spec_build_fifo_and_conflict():
    assert isinstance(SchedulerSpec(kind="fifo").build(), FifoScheduler)
    sched = SchedulerSpec(kind="conflict").build(lambda r: ())
    assert sched.name == "conflict"
    with pytest.raises(ValueError, match="fingerprint"):
        SchedulerSpec(kind="conflict").build()
    with pytest.raises(ValueError, match="unknown scheduler kind"):
        SchedulerSpec(kind="nope").build()
