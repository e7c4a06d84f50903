"""Tests for the star workload-graph representation (Section 4.2)."""

import pytest

from repro.core import TxnSample, build_star_graph


def samples_simple():
    return [
        TxnSample("p", reads=(("t", "a"),), writes=(("t", "h"),)),
        TxnSample("p", reads=(("t", "b"),), writes=(("t", "h"),)),
    ]


def test_star_shape_vertex_and_edge_counts():
    """|V| = |T| + |R| and n edges per transaction (not n(n-1)/2)."""
    star = build_star_graph(samples_simple(), {("t", "h"): 0.9})
    assert len(star.t_vertex_of) == 2
    assert len(star.r_vertex_of) == 3  # a, b, h
    assert star.graph.n_vertices == 5
    assert star.graph.n_edges == 4  # 2 records per txn
    # no record-record edges: records connect only through t-vertices
    for rid, vertex in star.r_vertex_of.items():
        for neighbor in star.graph.neighbors(vertex):
            assert neighbor in star.t_vertex_of


def test_edge_weights_follow_normalized_likelihood():
    star = build_star_graph(samples_simple(),
                            {("t", "h"): 0.5, ("t", "a"): 0.25})
    assert star.edge_weight_of[("t", "h")] == pytest.approx(1.0)
    assert star.edge_weight_of[("t", "a")] == pytest.approx(0.5)
    assert star.edge_weight_of[("t", "b")] == pytest.approx(0.0)


def test_min_weight_floors_all_edges():
    star = build_star_graph(samples_simple(), {("t", "h"): 0.5},
                            min_weight=0.1)
    assert star.edge_weight_of[("t", "a")] == pytest.approx(0.1)
    assert star.edge_weight_of[("t", "h")] == pytest.approx(1.0)


def test_duplicate_record_access_collapses_to_one_edge():
    sample = TxnSample("p", reads=(("t", "x"),), writes=(("t", "x"),))
    star = build_star_graph([sample], {})
    assert star.graph.n_edges == 1


def test_load_metric_transactions():
    star = build_star_graph(samples_simple(), {},
                            load_metric="transactions")
    for v in star.t_vertex_of:
        assert star.graph.vertex_weights[v] == 1.0
    for v in star.r_vertex_of.values():
        assert star.graph.vertex_weights[v] == 0.0


def test_load_metric_records():
    star = build_star_graph(samples_simple(), {}, load_metric="records")
    for v in star.t_vertex_of:
        assert star.graph.vertex_weights[v] == 0.0
    for v in star.r_vertex_of.values():
        assert star.graph.vertex_weights[v] == 1.0


def test_unknown_load_metric_rejected():
    with pytest.raises(ValueError, match="load metric"):
        build_star_graph([], {}, load_metric="bogus")


def test_negative_min_weight_rejected():
    with pytest.raises(ValueError):
        build_star_graph([], {}, min_weight=-0.5)


def test_assignment_helpers():
    star = build_star_graph(samples_simple(), {("t", "h"): 0.9})
    # vertices: t0, t1 then records in first-seen order a, h, b
    assignment = [0, 1, 0, 0, 1]
    records = star.record_assignment(assignment)
    assert records[("t", "a")] == 0
    assert records[("t", "h")] == 0
    assert records[("t", "b")] == 1
    assert star.inner_host_assignment(assignment) == [0, 1]
