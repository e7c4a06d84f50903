"""Unit tests for the health watchdog: rules, latching, abort."""

import pytest

from repro.obs import (HealthRule, HealthWatchdog, TimelineSample,
                       WatchdogAbort, default_rules)


INTERVAL = 100.0


def row(t_us, server=0, counters=None, gauges=None, tenants=None,
        final=False, gen=0):
    return TimelineSample(t_us=t_us, server=server, gen=gen,
                          counters=counters or {}, gauges=gauges or {},
                          tenants=tenants or {}, final=final)


def watchdog(*rules, abort=False):
    return HealthWatchdog(rules=rules or None, interval_us=INTERVAL,
                          abort=abort)


def feed(dog, rows_by_tick, at_us=None):
    """Ingest + evaluate one interval at a time; returns all events."""
    fired = []
    for i, rows in enumerate(rows_by_tick):
        now = INTERVAL * (i + 1)
        dog.ingest(rows, at_us=at_us)
        fired.extend(dog.evaluate(now))
    return fired


# -- stall ------------------------------------------------------------------

def test_stall_fires_after_window_intervals_without_progress():
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    busy = {"admitted": 4.0, "completed": 4.0}
    stuck = {"admitted": 4.0}
    ticks = [[row(INTERVAL * (i + 1), counters=busy if i < 2 else stuck)]
             for i in range(5)]
    events = feed(dog, ticks)
    assert [e.kind for e in events] == ["stall"]
    assert events[0].server == 0
    # detection latency is bounded by the rule window
    assert events[0].t_us == INTERVAL * 5


def test_idle_is_not_a_stall():
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    idle = [[row(INTERVAL * (i + 1))] for i in range(5)]
    assert feed(dog, idle) == []


def test_a_held_queue_with_no_progress_is_a_stall():
    dog = watchdog(HealthRule("stall", 0.0, window=2))
    ticks = [[row(INTERVAL * (i + 1), gauges={"queue_depth": 3.0})]
             for i in range(3)]
    events = feed(dog, ticks)
    assert [e.kind for e in events] == ["stall"]


def test_silence_is_a_stall():
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    dog.ingest([row(INTERVAL, counters={"admitted": 1.0,
                                        "completed": 1.0})])
    assert dog.evaluate(INTERVAL) == []
    # the server ships nothing for >= window intervals
    events = dog.evaluate(INTERVAL * 4)
    assert [e.kind for e in events] == ["stall"]
    assert "silent" in events[0].message


def test_a_new_generation_is_a_stall_however_short_the_gap():
    """A forked respawn ships again within one interval, far inside the
    silence window; the move to a new generation still reports the
    death, once, naming the gap."""
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    busy = {"admitted": 1.0, "completed": 1.0}
    dog.ingest([row(INTERVAL, counters=busy)], at_us=INTERVAL)
    assert dog.evaluate(INTERVAL) == []
    dog.ingest([row(INTERVAL * 0.5, counters=busy, gen=1)],
               at_us=INTERVAL * 2.5)
    events = dog.evaluate(INTERVAL * 2.5)
    assert [(e.kind, e.server, e.value) for e in events] == [
        ("stall", 0, INTERVAL * 1.5)]
    assert "silent for 150us across a restart" in events[0].message
    dog.ingest([row(INTERVAL * 1.5, counters=busy, gen=1)],
               at_us=INTERVAL * 3.5)
    assert dog.evaluate(INTERVAL * 3.5) == []


def test_a_restart_after_a_reported_silence_is_the_same_incident():
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    busy = {"admitted": 1.0, "completed": 1.0}
    dog.ingest([row(INTERVAL, counters=busy)])
    events = dog.evaluate(INTERVAL * 4)
    assert [e.kind for e in events] == ["stall"]
    dog.ingest([row(INTERVAL * 5, counters=busy, gen=1)])
    assert dog.evaluate(INTERVAL * 5) == []


def test_a_finished_server_is_retired_from_silence_detection():
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    dog.ingest([row(INTERVAL, final=True)])
    assert dog.evaluate(INTERVAL * 10) == []


def test_ingest_at_us_overrides_row_clocks():
    # the mp parent stamps last-seen with its own clock: worker sample
    # timestamps start after the build phase, so trusting them would
    # read the whole build time as silence
    dog = watchdog(HealthRule("stall", 0.0, window=3))
    parent_now = 5_000.0
    dog.ingest([row(INTERVAL, counters={"admitted": 1.0,
                                        "completed": 1.0})],
               at_us=parent_now)
    assert dog.evaluate(parent_now) == []
    assert dog.evaluate(parent_now + INTERVAL * 2) == []
    events = dog.evaluate(parent_now + INTERVAL * 3)
    assert [e.kind for e in events] == ["stall"]


# -- queue saturation -------------------------------------------------------

def test_queue_saturation_needs_a_full_window():
    dog = watchdog(HealthRule("queue_saturation", 8.0, window=3))
    deep = {"queue_depth": 9.0}
    ticks = [[row(INTERVAL * (i + 1), gauges=deep)] for i in range(3)]
    events = feed(dog, ticks)
    assert [e.kind for e in events] == ["queue_saturation"]
    assert events[0].value == 9.0


def test_one_shallow_sample_resets_saturation():
    dog = watchdog(HealthRule("queue_saturation", 8.0, window=3))
    depths = [9.0, 9.0, 2.0, 9.0, 9.0]
    ticks = [[row(INTERVAL * (i + 1), gauges={"queue_depth": d})]
             for i, d in enumerate(depths)]
    assert feed(dog, ticks) == []


# -- SLO burn ---------------------------------------------------------------

def test_slo_burn_pools_tenant_counters_across_servers():
    dog = watchdog(HealthRule("slo_burn", 0.5, window=2))
    ticks = [
        [row(INTERVAL * (i + 1), server=s,
             tenants={"gold": {"scheduled": 10.0, "in_slo": 2.0}})
         for s in (0, 1)]
        for i in range(2)
    ]
    events = feed(dog, ticks)
    assert [e.kind for e in events] == ["slo_burn"]
    assert events[0].server == -1
    assert events[0].value == pytest.approx(0.2)
    assert "gold" in events[0].message


def test_slo_burn_scopes_by_tenant_substring():
    dog = watchdog(HealthRule("slo_burn", 0.5, window=2, tenant="gold"))
    ticks = [
        [row(INTERVAL * (i + 1),
             tenants={"bronze": {"scheduled": 10.0, "in_slo": 0.0}})]
        for i in range(3)
    ]
    assert feed(dog, ticks) == []


# -- cluster counters -------------------------------------------------------

def test_leader_flap_counts_failovers_in_the_window():
    dog = watchdog(HealthRule("leader_flap", 1.0, window=3))
    ticks = [[row(INTERVAL * (i + 1),
                  counters={"controller_failovers": 1.0} if i == 1
                  else {})]
             for i in range(3)]
    events = feed(dog, ticks)
    assert [e.kind for e in events] == ["leader_flap"]
    assert events[0].server == -1


def test_restart_storm_needs_threshold_restarts():
    dog = watchdog(HealthRule("restart_storm", 2.0, window=3))
    one = [[row(INTERVAL, counters={"recoveries": 1.0})]]
    assert feed(dog, one) == []
    dog2 = watchdog(HealthRule("restart_storm", 2.0, window=3))
    two = [[row(INTERVAL, counters={"recoveries": 2.0})]]
    assert [e.kind for e in feed(dog2, two)] == ["restart_storm"]


# -- mechanics --------------------------------------------------------------

def test_events_latch_once_per_incident_and_rearm():
    dog = watchdog(HealthRule("queue_saturation", 8.0, window=1))
    depths = [9.0, 9.0, 1.0, 9.0]
    ticks = [[row(INTERVAL * (i + 1), gauges={"queue_depth": d})]
             for i, d in enumerate(depths)]
    events = feed(dog, ticks)
    # two incidents (interval 1 and 4), not three firing intervals
    assert len(events) == 2
    assert dog.summary()[0]["kind"] == "queue_saturation"


def test_fatal_rule_with_abort_raises_watchdog_abort():
    dog = watchdog(HealthRule("stall", 0.0, window=1, fatal=True),
                   abort=True)
    dog.ingest([row(INTERVAL, counters={"admitted": 2.0})])
    with pytest.raises(WatchdogAbort) as err:
        dog.evaluate(INTERVAL)
    assert err.value.event.kind == "stall"
    # harvest-time evaluation never aborts
    dog2 = watchdog(HealthRule("stall", 0.0, window=1, fatal=True),
                    abort=True)
    dog2.ingest([row(INTERVAL, counters={"admitted": 2.0})])
    assert dog2.evaluate(INTERVAL, allow_abort=False)


def test_unknown_rule_kind_is_rejected():
    dog = watchdog(HealthRule("made_up", 1.0))
    with pytest.raises(ValueError, match="made_up"):
        dog.evaluate(INTERVAL)


def test_default_rules_cover_the_stock_kinds():
    kinds = {rule.kind for rule in default_rules()}
    assert kinds == {"stall", "queue_saturation", "slo_burn",
                     "leader_flap", "restart_storm"}
    assert any(rule.fatal for rule in default_rules())
