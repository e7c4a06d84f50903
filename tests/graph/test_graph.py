"""Unit tests for the weighted graph structure."""

import pytest

from repro.graph import WeightedGraph


def test_add_vertices_and_edges():
    g = WeightedGraph()
    a = g.add_vertex(2.0)
    b = g.add_vertex(3.0)
    g.add_edge(a, b, 1.5)
    assert g.n_vertices == 2
    assert g.n_edges == 1
    assert g.neighbors(a) == {b: 1.5}
    assert g.total_vertex_weight() == 5.0


def test_parallel_edges_accumulate():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert g.neighbors(0)[1] == 3.0
    assert g.n_edges == 1


def test_self_loop_rejected():
    g = WeightedGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_negative_weight_rejected():
    g = WeightedGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        g.add_edge(0, 1, -1.0)


def test_unknown_vertex_rejected():
    g = WeightedGraph.from_edges(2, [])
    with pytest.raises(IndexError):
        g.add_edge(0, 5)


def test_edge_cut():
    #  0 -1- 1 -5- 2    cut between {0,1} and {2} = 5
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 5.0)])
    assert g.edge_cut([0, 0, 1]) == 5.0
    assert g.edge_cut([0, 1, 1]) == 1.0
    assert g.edge_cut([0, 0, 0]) == 0.0


def test_edge_cut_wrong_length():
    g = WeightedGraph.from_edges(3, [])
    with pytest.raises(ValueError):
        g.edge_cut([0, 1])


def test_part_loads_and_balance():
    g = WeightedGraph.from_edges(4, [], vertex_weights=[1, 1, 1, 3])
    assert g.part_loads([0, 0, 1, 1], 2) == [2.0, 4.0]
    # mu = 3; (1+eps)*mu with eps=0.5 allows 4.5
    assert g.is_balanced([0, 0, 1, 1], 2, eps=0.5)
    assert not g.is_balanced([0, 0, 1, 1], 2, eps=0.1)


def test_part_loads_invalid_assignment():
    g = WeightedGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        g.part_loads([0, 7], 2)
