"""Unit tests for the live metrics timeline: rings, deltas, sampling."""

from dataclasses import dataclass
from types import SimpleNamespace

from repro._stats import stat
from repro.obs import Timeline, TimelineSample, TimelineSampler


def row(t_us, server=0, gen=0, counters=None, gauges=None, final=False):
    return TimelineSample(t_us=t_us, server=server, gen=gen,
                          counters=counters or {}, gauges=gauges or {},
                          final=final)


# -- Timeline ---------------------------------------------------------------

def test_rings_are_per_server_and_bounded():
    tl = Timeline(10.0, ring=3)
    for i in range(5):
        tl.add(row(float(i), server=0))
    tl.add(row(0.0, server=1))
    assert tl.servers() == [0, 1]
    assert tl.dropped == 2
    assert [r.t_us for r in tl.rows(0)] == [2.0, 3.0, 4.0]
    assert len(tl.rows(1)) == 1


def test_rows_interleave_time_ordered():
    tl = Timeline(10.0)
    tl.add(row(20.0, server=1))
    tl.add(row(10.0, server=0))
    tl.add(row(20.0, server=0))
    assert [(r.t_us, r.server) for r in tl.rows()] == \
        [(10.0, 0), (20.0, 0), (20.0, 1)]


def test_cumulative_is_monotone():
    tl = Timeline(10.0)
    for i, commits in enumerate([3, 0, 5]):
        tl.add(row(10.0 * (i + 1), counters={"commits": commits}))
    assert [t for t, _ in tl.cumulative("commits")] == [10.0, 20.0, 30.0]
    cumulative = [v for _, v in tl.cumulative("commits")]
    assert cumulative == [3, 3, 8]
    assert cumulative == sorted(cumulative)


def test_gauges_read_max_and_last():
    tl = Timeline(10.0)
    tl.add(row(10.0, gauges={"queue_depth": 4.0}))
    assert tl.gauge_max("queue_depth") == 4.0
    assert tl.gauge_last("queue_depth", 0) == 4.0


def test_totals_and_tenant_totals_sum_all_servers():
    tl = Timeline(10.0)
    tl.add(row(10.0, server=0, counters={"commits": 2}))
    a = row(10.0, server=1, counters={"commits": 3})
    a.tenants["gold"] = {"scheduled": 5, "in_slo": 4}
    tl.add(a)
    assert tl.totals()["commits"] == 5
    assert tl.tenant_totals() == {"gold": {"scheduled": 5, "in_slo": 4}}


def test_summary_reports_the_headline_numbers():
    tl = Timeline(10.0)
    tl.add(row(10.0, counters={"commits": 7, "aborts": 1, "sheds": 2},
               gauges={"queue_depth": 3.0, "max_queue_depth": 9.0}))
    summary = tl.summary()
    assert summary["samples"] == 1 and summary["servers"] == 1
    assert summary["commits"] == 7 and summary["aborts"] == 1
    assert summary["sheds"] == 2 and summary["max_queue_depth"] == 9


# -- TimelineSampler --------------------------------------------------------

@dataclass
class EngineStats:
    """What the sampler reads off an engine: declared, never named."""

    admitted: int = stat(timeline="admitted")
    completed: int = stat(timeline="completed")
    queue_depth: int = stat(fold="max", timeline="queue_depth")
    unsampled: int = 0


@dataclass
class WireStats:
    by_kind: dict = stat(dict, timeline="wire_bytes")


def outcome(committed=True, reason=None):
    return SimpleNamespace(committed=committed, reason=reason)


def test_tick_fires_only_on_interval_boundaries():
    sampler = TimelineSampler(100.0, [], {0: EngineStats()})
    assert sampler.tick(50.0) == []
    rows = sampler.tick(100.0)
    assert len(rows) == 1 and rows[0].t_us == 100.0
    assert sampler.tick(150.0) == []
    # a late tick lands in whatever interval the clock reached
    assert sampler.tick(350.0)[0].t_us == 350.0


def test_counters_are_deltas_not_cumulative():
    stats = EngineStats()
    sampler = TimelineSampler(100.0, [], {0: stats})
    stats.completed, stats.unsampled, stats.queue_depth = 5, 9, 2
    first = sampler.tick(100.0)[0]
    stats.completed, stats.queue_depth = 8, 1
    second = sampler.tick(200.0)[0]
    assert first.counters == {"completed": 5}
    assert second.counters == {"completed": 3}
    # a gauge is read, not diffed
    assert first.gauges == {"queue_depth": 2.0}
    assert second.gauges == {"queue_depth": 1.0}


def test_process_counters_ride_only_the_primary_row():
    outcomes = [outcome(), outcome(), outcome(False, "lock_conflict")]
    sampler = TimelineSampler(100.0, outcomes,
                              {2: EngineStats(), 5: EngineStats()})
    rows = sampler.tick(100.0)
    by_server = {r.server: r for r in rows}
    assert sampler.primary == 2
    assert by_server[2].counters["commits"] == 2
    assert by_server[2].counters["aborts"] == 1
    assert by_server[2].counters["aborts.lock_conflict"] == 1
    assert "commits" not in by_server[5].counters


def test_outcome_scan_never_double_counts():
    outcomes = [outcome()]
    sampler = TimelineSampler(100.0, outcomes, {0: EngineStats()})
    assert sampler.tick(100.0)[0].counters["commits"] == 1
    outcomes.append(outcome())
    assert sampler.tick(200.0)[0].counters["commits"] == 1


def test_flush_marks_rows_final():
    sampler = TimelineSampler(100.0, [], {0: EngineStats()})
    assert all(not r.final for r in sampler.tick(100.0))
    assert all(r.final for r in sampler.flush(150.0))


def test_a_homeless_process_still_emits_a_liveness_row():
    sampler = TimelineSampler(100.0, [outcome()], {})
    rows = sampler.tick(100.0)
    assert len(rows) == 1
    assert rows[0].counters["commits"] == 1


def test_source_snapshots_flow_through():
    network = WireStats(by_kind={"lock_read": 600, "commit": 40})
    sampler = TimelineSampler(100.0, [], {0: EngineStats()},
                              {"network": network},
                              events_fired=lambda: 42)
    first = sampler.tick(100.0)[0]
    assert first.counters["wire_bytes"] == 640
    assert first.counters["events"] == 42
    second = sampler.tick(200.0)[0]
    # unchanged sources contribute no delta keys
    assert "wire_bytes" not in second.counters
    assert "events" not in second.counters


def test_tenant_books_are_diffed_per_tenant_as_they_appear():
    tenants = {"gold": EngineStats(admitted=2)}
    sampler = TimelineSampler(100.0, [], {0: EngineStats()},
                              tenants=tenants)
    assert sampler.tick(100.0)[0].tenants == {"gold": {"admitted": 2}}
    tenants["gold"].admitted = 5
    tenants["free"] = EngineStats(completed=1)
    assert sampler.tick(200.0)[0].tenants == {"gold": {"admitted": 3},
                                              "free": {"completed": 1}}
    assert sampler.tick(300.0)[0].tenants == {}
