"""Unit tests for the span tracer: rings, sampling, merge, export."""

import json

from repro._stats import fold
from repro.obs import (NOOP_TRACER, PHASES, VERB_PHASES, SpanRing,
                       TraceData, Tracer, critical_path, exemplar_summary,
                       to_trace_events, trace_tree, write_trace_json)
from repro.obs import tracer as tracer_module
from repro.obs.tracer import TRACE_HOME_SHIFT


def span(trace, server=0, phase="lock", t0=0.0, t1=1.0, outcome="ok",
         txn_id=7, attempt=0):
    return (trace, txn_id, attempt, server, phase, t0, t1, outcome)


# -- SpanRing ---------------------------------------------------------------

def test_ring_rounds_capacity_to_power_of_two():
    assert SpanRing(5).mask == 7
    assert SpanRing(8).mask == 7
    assert SpanRing(1).mask == 0


def test_ring_keeps_newest_on_overflow():
    ring = SpanRing(4)
    for i in range(10):
        ring.push(span(1, t0=float(i)))
    assert ring.n == 10
    assert ring.dropped == 6
    # oldest-first order of the surviving (newest) four
    assert [s[5] for s in ring.spans()] == [6.0, 7.0, 8.0, 9.0]


def test_ring_under_capacity_preserves_order():
    ring = SpanRing(8)
    for i in range(3):
        ring.push(span(1, t0=float(i)))
    assert ring.dropped == 0
    assert [s[5] for s in ring.spans()] == [0.0, 1.0, 2.0]


# -- Tracer -----------------------------------------------------------------

def test_trace_ids_encode_home_and_are_never_zero():
    tracer = Tracer()
    first = tracer.new_trace(home=3)
    second = tracer.new_trace(home=3)
    assert first != 0 and second != 0 and first != second
    assert first >> TRACE_HOME_SHIFT == 4  # home + 1: home 0 stays nonzero
    assert Tracer().new_trace(home=0) >> TRACE_HOME_SHIFT == 1


def test_sampling_is_deterministic():
    a = Tracer(sample_every=3)
    b = Tracer(sample_every=3)
    picks_a = [a.new_trace(0) != 0 for _ in range(9)]
    picks_b = [b.new_trace(0) != 0 for _ in range(9)]
    assert picks_a == picks_b
    assert sum(picks_a) == 3


def test_span_with_zero_trace_is_dropped():
    tracer = Tracer()
    tracer.span(0, 1, 0, 0, "lock", 0.0, 1.0)
    assert tracer.harvest().spans == []


def test_spans_route_to_per_server_rings():
    tracer = Tracer()
    trace = tracer.new_trace(0)
    tracer.span(trace, 1, 0, 2, "lock", 0.0, 1.0)
    tracer.span(trace, 1, 0, 0, "commit", 1.0, 2.0)
    data = tracer.harvest()
    # harvest drains rings in server order
    assert [s[3] for s in data.spans] == [0, 2]
    assert tracer.harvest().spans == []  # drained


def test_exemplars_keep_slowest_k_per_tenant(monkeypatch):
    monkeypatch.setattr(tracer_module, "EXEMPLAR_K", 2)
    tracer = Tracer()
    for latency in (10.0, 50.0, 30.0, 40.0):
        tracer.exemplar("gold", tracer.new_trace(0), latency)
    data = tracer.harvest()
    assert [lat for lat, _ in data.exemplars["gold"]] == [50.0, 40.0]


def test_noop_tracer_records_nothing():
    assert NOOP_TRACER.enabled is False
    assert NOOP_TRACER.new_trace(0) == 0
    NOOP_TRACER.span(1, 1, 0, 0, "lock", 0.0, 1.0)
    NOOP_TRACER.exemplar("t", 1, 5.0)
    assert NOOP_TRACER.harvest().spans == []


def test_verb_phases_name_known_phases():
    assert set(VERB_PHASES.values()) <= set(PHASES)


# -- TraceData fold ---------------------------------------------------------

def test_merge_concatenates_spans_and_truncates_exemplars():
    a = TraceData(spans=[span(1)], dropped=2, exemplar_k=2)
    a.exemplars["gold"] = [(50.0, 1), (20.0, 2)]
    b = TraceData(spans=[span(2)], dropped=1, exemplar_k=2)
    b.exemplars["gold"] = [(40.0, 3)]
    b.exemplars["free"] = [(9.0, 4)]
    fold(a, b)
    assert len(a.spans) == 2
    assert a.dropped == 3
    # every part's candidates are kept; the report keeps the slowest K
    assert a.exemplars["gold"] == [(50.0, 1), (20.0, 2), (40.0, 3)]
    slowest = exemplar_summary(a)
    assert [r["trace"] for r in slowest["gold"]] == [1, 3]  # 20.0 evicted
    assert [r["trace"] for r in slowest["free"]] == [4]
    assert a.summary() == {"spans": 2, "dropped": 3,
                           "dropped_spans": 3, "traces": 2}


# -- export -----------------------------------------------------------------

def test_trace_tree_groups_and_orders():
    spans = [span(2, t0=5.0, t1=6.0), span(1, t0=1.0, t1=3.0),
             span(1, t0=0.0, t1=4.0, phase="commit")]
    tree = trace_tree(spans)
    assert set(tree) == {1, 2}
    assert [s[5] for s in tree[1]] == [0.0, 1.0]


def test_critical_path_finds_dominant_phase():
    spans = [span(1, phase="lock", t0=0.0, t1=10.0),
             span(1, phase="lock", t0=10.0, t1=15.0, server=1),
             span(1, phase="commit", t0=15.0, t1=17.0)]
    path = critical_path(spans)
    assert path["dominant_phase"] == "lock"
    assert path["phases"]["lock"] == 15.0
    assert path["span_count"] == 3
    assert path["servers"] == [0, 1]


def test_exemplar_summary_attributes_latency():
    data = TraceData(spans=[span(1, phase="replicate", t0=0.0, t1=9.0),
                            span(1, phase="commit", t0=9.0, t1=10.0)])
    data.exemplars["gold"] = [(10.0, 1)]
    rows = exemplar_summary(data)
    assert rows["gold"][0]["latency_us"] == 10.0
    assert rows["gold"][0]["dominant_phase"] == "replicate"


def test_chrome_trace_export_shape(tmp_path):
    data = TraceData(spans=[span(1, t0=2.0, t1=5.0)], dropped=1)
    events = to_trace_events(data.spans)
    assert events[0]["ph"] == "X"
    assert events[0]["ts"] == 2.0 and events[0]["dur"] == 3.0
    assert events[0]["pid"] == 0 and events[0]["tid"] == 1

    path = tmp_path / "trace.json"
    write_trace_json(data, str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == 1
    assert doc["otherData"]["dropped_spans"] == 1
