"""The merge memo of ``storage/partition.py``: an in-process replica
adopts its primary's merged fields dict; anything else merges."""

import pickle

import pytest

from repro.storage import PartitionStore, TableSpec, partition


@pytest.fixture(autouse=True)
def cold_memo(monkeypatch):
    monkeypatch.setattr(partition, "_merged", {})
    monkeypatch.setattr(partition, "_merged_before", {})


def primary_and_replica(fields):
    """Two copies of one record sharing its loaded dict, as a build
    leaves a primary and its replica."""
    primary = PartitionStore(0, [TableSpec("acct")])
    replica = PartitionStore(0, [TableSpec("acct")])
    for store in (primary, replica):
        store.load("acct", 1, fields)
    return primary, replica


def test_an_identity_hit_adopts_the_primary_dict():
    primary, replica = primary_and_replica({"balance": 100, "name": "a"})
    writes = (("update", "acct", 1, {"balance": 90}),)
    assert primary.apply(writes, redo=False) == [(("acct", 1), 1)]
    replica.apply(writes, redo=True)
    mine, version = replica.read("acct", 1)
    assert mine is primary.read("acct", 1)[0]
    assert mine == {"balance": 90, "name": "a"} and version == 1


def test_an_equal_but_distinct_write_set_merges():
    """A write set decoded from the wire (mp) is a new object: the
    replica merges it itself, to the same value."""
    primary, replica = primary_and_replica({"balance": 100, "name": "a"})
    writes = (("update", "acct", 1, {"balance": 90}),)
    primary.apply(writes, redo=False)
    replica.apply(pickle.loads(pickle.dumps(writes)), redo=True)
    mine, theirs = replica.read("acct", 1)[0], primary.read("acct", 1)[0]
    assert mine is not theirs and mine == theirs


def test_one_updates_dict_into_two_records_keeps_each_right():
    store = PartitionStore(0, [TableSpec("acct")])
    store.load("acct", 1, {"balance": 100, "name": "a"})
    store.load("acct", 2, {"balance": 200, "name": "b"})
    updates = {"balance": 0}
    store.apply((("update", "acct", 1, updates),
                 ("update", "acct", 2, updates)), redo=False)
    assert store.read("acct", 1) == ({"balance": 0, "name": "a"}, 1)
    assert store.read("acct", 2) == ({"balance": 0, "name": "b"}, 1)


def test_the_cap_bounds_the_memo(monkeypatch):
    monkeypatch.setattr(partition, "MERGE_MEMO_CAP", 8)
    store = PartitionStore(0, [TableSpec("acct")])
    store.load("acct", 1, {"balance": 0})
    for value in range(100):
        store.apply((("update", "acct", 1, {"balance": value}),),
                    redo=False)
        assert len(partition._merged) <= 8
        assert len(partition._merged_before) <= 8
    assert store.read("acct", 1) == ({"balance": 99}, 100)
