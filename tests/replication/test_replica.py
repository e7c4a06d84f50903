"""Tests for replica placement and write application."""

import pytest

from repro.replication import ReplicaManager
from repro.storage import TableSpec

TABLES = [TableSpec("t", n_buckets=64)]


def test_chained_placement_avoids_self():
    manager = ReplicaManager(4, 2, TABLES)
    assert manager.replica_servers(0) == (1, 2)
    assert manager.replica_servers(3) == (0, 1)
    # computed once: every call hands out the same tuple
    assert manager.replica_servers(0) is manager.replica_servers(0)
    for partition in range(4):
        assert partition not in manager.replica_servers(partition)


def test_replication_degree_zero():
    manager = ReplicaManager(3, 0, TABLES)
    assert manager.replica_servers(1) == ()


def test_too_many_replicas_rejected():
    with pytest.raises(ValueError):
        ReplicaManager(2, 2, TABLES)
    with pytest.raises(ValueError):
        ReplicaManager(3, -1, TABLES)


def test_load_seeds_all_replicas():
    manager = ReplicaManager(3, 2, TABLES)
    manager.load(0, "t", 1, {"v": 10})
    for server in manager.replica_servers(0):
        assert manager.store_on(server, 0).read("t", 1)[0] == {"v": 10}


def test_apply_update_insert_delete():
    manager = ReplicaManager(3, 1, TABLES)
    manager.load(0, "t", 1, {"v": 1})
    server = manager.replica_servers(0)[0]
    manager.apply(server, 0, [("update", "t", 1, {"v": 2})])
    assert manager.store_on(server, 0).read("t", 1)[0] == {"v": 2}
    manager.apply(server, 0, [("insert", "t", 2, {"v": 9})])
    assert manager.store_on(server, 0).read("t", 2)[0] == {"v": 9}
    manager.apply(server, 0, [("delete", "t", 1, None)])
    assert manager.store_on(server, 0).read("t", 1) is None


def test_apply_update_upserts_when_insert_missed():
    manager = ReplicaManager(3, 1, TABLES)
    server = manager.replica_servers(0)[0]
    manager.apply(server, 0, [("update", "t", 7, {"v": 3})])
    assert manager.store_on(server, 0).read("t", 7)[0] == {"v": 3}


def test_apply_unknown_kind_rejected():
    manager = ReplicaManager(3, 1, TABLES)
    server = manager.replica_servers(0)[0]
    with pytest.raises(ValueError):
        manager.apply(server, 0, [("upsert", "t", 1, {})])


def test_applied_counts_tracked():
    manager = ReplicaManager(3, 1, TABLES)
    server = manager.replica_servers(0)[0]
    manager.apply(server, 0, [("insert", "t", 1, {"v": 1})])
    manager.apply(server, 0, [("update", "t", 1, {"v": 2})])
    assert manager.applied_counts[(server, 0)] == 2


def test_in_order_application_last_writer_wins():
    """Sequential write-sets must land in order (the FIFO property the
    inner-region protocol relies on)."""
    manager = ReplicaManager(3, 1, TABLES)
    manager.load(0, "t", 1, {"v": 0})
    server = manager.replica_servers(0)[0]
    for i in range(1, 50):
        manager.apply(server, 0, [("update", "t", 1, {"v": i})])
    assert manager.store_on(server, 0).read("t", 1)[0] == {"v": 49}
