"""Unit tests for the serializability checker."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn import CommitLog, HistoryRecorder


def log(txn_id, reads=(), writes=()):
    return CommitLog(txn_id, reads=list(reads), writes=list(writes))


def test_empty_history_is_serializable():
    history = HistoryRecorder()
    assert history.is_serializable()


def test_sequential_writers_are_serializable():
    history = HistoryRecorder()
    history.record(log(1, writes=[(("t", "a"), 1)]))
    history.record(log(2, writes=[(("t", "a"), 2)]))
    assert history.is_serializable()
    assert (1, 2) in history.precedence_edges()


def test_classic_rw_cycle_detected():
    """T1 reads a@0 writes b@1; T2 reads b@0 writes a@1 - not
    serializable (each read preceded the other's write)."""
    history = HistoryRecorder()
    history.record(log(1, reads=[(("t", "a"), 0)],
                       writes=[(("t", "b"), 1)]))
    history.record(log(2, reads=[(("t", "b"), 0)],
                       writes=[(("t", "a"), 1)]))
    cycle = history.find_cycle()
    assert cycle is not None
    assert set(cycle) >= {1, 2}


def test_read_your_writer_ordering():
    """Reader of version 1 comes after the writer of version 1."""
    history = HistoryRecorder()
    history.record(log(1, writes=[(("t", "a"), 1)]))
    history.record(log(2, reads=[(("t", "a"), 1)]))
    edges = history.precedence_edges()
    assert (1, 2) in edges
    assert history.is_serializable()


def test_reader_before_next_writer():
    history = HistoryRecorder()
    history.record(log(1, reads=[(("t", "a"), 0)]))
    history.record(log(2, writes=[(("t", "a"), 1)]))
    assert (1, 2) in history.precedence_edges()


def test_lost_update_raises():
    """Two transactions producing the same version = a lost update."""
    history = HistoryRecorder()
    history.record(log(1, writes=[(("t", "a"), 1)]))
    history.record(log(2, writes=[(("t", "a"), 1)]))
    with pytest.raises(ValueError, match="lost update"):
        history.precedence_edges()


def test_self_conflicts_ignored():
    history = HistoryRecorder()
    history.record(log(1, reads=[(("t", "a"), 0)],
                       writes=[(("t", "a"), 1)]))
    assert history.is_serializable()
    assert history.precedence_edges() == set()


def test_double_update_collapsed_to_final_version():
    history = HistoryRecorder()
    record = log(1, writes=[(("t", "a"), 1), (("t", "a"), 2)])
    assert HistoryRecorder.writes_collapsed(record) == [(("t", "a"), 2)]


def test_three_txn_cycle():
    history = HistoryRecorder()
    history.record(log(1, reads=[(("t", "a"), 0)],
                       writes=[(("t", "b"), 1)]))
    history.record(log(2, reads=[(("t", "b"), 0)],
                       writes=[(("t", "c"), 1)]))
    history.record(log(3, reads=[(("t", "c"), 0)],
                       writes=[(("t", "a"), 1)]))
    assert not history.is_serializable()



# -- the bisect search against the rescanning oracle ---------------------------


def oracle_edges(history: HistoryRecorder) -> set[tuple[int, int]]:
    """The checker as it was before it searched sorted versions: every
    read rescans its record's whole version list (quadratic on a hot
    key, kept here as the reference the fast path must match)."""
    writers = defaultdict(dict)
    readers = defaultdict(list)
    for entry in history.commits:
        for rid, version in HistoryRecorder.writes_collapsed(entry):
            writers[rid][version] = entry.txn_id
        for rid, version in entry.reads:
            readers[rid].append((version, entry.txn_id))
    edges = set()
    for rid, by_version in writers.items():
        ordered = sorted(by_version)
        for v1, v2 in zip(ordered, ordered[1:]):
            if by_version[v1] != by_version[v2]:
                edges.add((by_version[v1], by_version[v2]))
        for read_version, reader in readers[rid]:
            before = [v for v in ordered if v <= read_version]
            if before and by_version[before[-1]] != reader:
                edges.add((by_version[before[-1]], reader))
            after = [v for v in ordered if v > read_version]
            if after and by_version[after[0]] != reader:
                edges.add((reader, by_version[after[0]]))
    return edges


@st.composite
def histories(draw) -> HistoryRecorder:
    """A few transactions over a few records: each record's versions
    have distinct writers (no lost update), reads see any version,
    including ones nobody wrote and ones past the last write."""
    n_txns = draw(st.integers(1, 8))
    reads = {txn: [] for txn in range(1, n_txns + 1)}
    writes = {txn: [] for txn in range(1, n_txns + 1)}
    for key in range(draw(st.integers(1, 3))):
        rid = ("t", key)
        for version in draw(st.lists(st.integers(1, 12), unique=True,
                                     max_size=6)):
            writes[draw(st.integers(1, n_txns))].append((rid, version))
        for _ in range(draw(st.integers(0, 8))):
            reads[draw(st.integers(1, n_txns))].append(
                (rid, draw(st.integers(0, 13))))
    history = HistoryRecorder()
    for txn in range(1, n_txns + 1):
        history.record(log(txn, reads[txn], writes[txn]))
    return history


@settings(max_examples=300, deadline=None)
@given(histories())
def test_edges_match_the_rescanning_oracle(history):
    assert history.precedence_edges() == oracle_edges(history)
