"""Dependency-graph tests, anchored on the paper's Fig. 4 example."""

import pytest

from repro.analysis import DependencyGraph, ProcedureRegistry
from repro.workloads.flightbooking import flight_booking_procedure


@pytest.fixture()
def graph():
    return DependencyGraph.from_procedure(flight_booking_procedure())


def test_fig4_pk_edges(graph):
    """Paper: tax read pk-depends on customer read; seats insert
    pk-depends on the flight read (seat_id)."""
    assert ("c", "t") in graph.pk_edges
    assert ("f", "s_ins") in graph.pk_edges
    # and nothing else is a pk-dep
    assert len(graph.pk_edges) == 2


def test_fig4_v_edges(graph):
    """Value deps do not constrain ordering but are tracked: the insert
    needs c.name, the customer update needs cost (from f and t)."""
    assert ("c", "s_ins") in graph.v_edges
    assert ("f", "c_upd") in graph.v_edges
    assert ("t", "c_upd") in graph.v_edges
    assert ("f", "f_upd") in graph.v_edges   # implicit target dep


def test_conditional_ops_marked(graph):
    assert graph.conditional == {"f_upd", "c_upd", "s_ins"}


def test_pk_children_and_descendants(graph):
    assert graph.pk_children("f") == ["s_ins"]
    assert graph.pk_children("c") == ["t"]
    assert not graph.has_pk_children("t")


def test_program_order_is_legal(graph):
    assert graph.is_legal_order(
        ["f", "c", "t", "ok", "f_upd", "c_upd", "s_ins"])


def test_order_violating_pk_dep_is_illegal(graph):
    # tax before customer violates the c -> t pk-dep
    assert not graph.is_legal_order(
        ["f", "t", "c", "ok", "f_upd", "c_upd", "s_ins"])


def test_order_with_missing_ops_is_illegal(graph):
    assert not graph.is_legal_order(["f", "c", "t"])


def test_cycle_detection():
    with pytest.raises(ValueError, match="cycle"):
        DependencyGraph(["a", "b"], pk_edges=[("a", "b"), ("b", "a")],
                        v_edges=[])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError, match="unknown op"):
        DependencyGraph(["a"], pk_edges=[("a", "zzz")], v_edges=[])


def test_to_dot_contains_styles(graph):
    dot = graph.to_dot()
    assert "style=solid" in dot
    assert "style=dashed" in dot
    assert "color=blue" in dot


def test_registry_builds_graph_at_registration(monkeypatch):
    built = []
    monkeypatch.setattr(DependencyGraph, "from_procedure",
                        classmethod(lambda cls, proc: built.append(proc)))
    registry = ProcedureRegistry()
    proc = flight_booking_procedure()
    registry.register(proc)
    assert built == [proc]
    assert registry.get("book_flight") is proc
    with pytest.raises(ValueError):
        registry.register(proc)
