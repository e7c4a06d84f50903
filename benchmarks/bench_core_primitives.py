"""Micro-benchmarks of the core primitives.

Includes the paper's Section 4.1 sizing claim: computing contention
likelihoods "even for a sample with one million records ... can be
performed in a matter of a few seconds."
"""

from repro._util import make_rng
from repro.core import contention_likelihood
from repro.graph import WeightedGraph, part_graph
from repro.graph import partition
from repro.storage import LockMode, LockWord


def test_contention_likelihood_1m_records(benchmark):
    def compute_million():
        out = 0.0
        for i in range(1_000_000):
            out += contention_likelihood(i * 1e-6, (i % 97) * 1e-5)
        return out

    result = benchmark.pedantic(compute_million, rounds=1, iterations=1)
    assert result > 0


def test_lock_word_acquire_release(benchmark):
    lock = LockWord()

    def cycle():
        for i in range(10_000):
            assert lock.try_acquire(LockMode.EXCLUSIVE, i)
            lock.release(i)

    benchmark.pedantic(cycle, rounds=1, iterations=1)


def test_multilevel_partitioner_medium_graph(benchmark, monkeypatch):
    rng = make_rng(11, "bench-graph")
    graph = WeightedGraph()
    n = 3000
    for _ in range(n):
        graph.add_vertex(1.0)
    for _ in range(4 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v, rng.uniform(0.1, 2.0))

    monkeypatch.setattr(partition, "N_TRIES", 2)
    assignment = benchmark.pedantic(
        part_graph, args=(graph, 8), kwargs={"seed": 4},
        rounds=1, iterations=1)
    assert graph.is_balanced(assignment, 8, 0.10)
