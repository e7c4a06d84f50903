"""Unit tests for the serializability checker."""

import pytest

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


def test_disabled_recorder_drops_logs():
    history = HistoryRecorder(enabled=False)
    history.record(log(1, writes=[(("t", "a"), 1)]))
    assert len(history.commits) == 0
