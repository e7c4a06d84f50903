"""Unit tests for PartitionStore: locks, record ops, span tracking."""

import pytest

from repro.storage import LockMode, PartitionStore, TableSpec


def make_store(track_spans=False, now=None):
    clock = {"t": 0.0}

    def now_fn():
        return clock["t"]

    store = PartitionStore(0, [TableSpec("acct", n_buckets=512)],
                           now_fn=now_fn, track_spans=track_spans)
    return store, clock


def test_load_and_read():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    fields, version = store.read("acct", 1)
    assert fields == {"balance": 100}
    assert version == 0


def test_read_missing_returns_none():
    store, _ = make_store()
    assert store.read("acct", 42) is None


def test_read_returns_copy():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    fields, _ = store.read("acct", 1)
    fields["balance"] = -1
    assert store.read("acct", 1)[0] == {"balance": 100}


def test_write_bumps_version():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    assert store.write("acct", 1, {"balance": 90})
    fields, version = store.read("acct", 1)
    assert fields["balance"] == 90
    assert version == 1


def test_write_missing_returns_false():
    store, _ = make_store()
    assert not store.write("acct", 9, {"x": 1})


def test_insert_and_delete():
    store, _ = make_store()
    assert store.insert("acct", 5, {"balance": 0})
    assert not store.insert("acct", 5, {"balance": 1})
    assert store.delete("acct", 5)
    assert not store.delete("acct", 5)


def test_try_lock_conflict_and_release_all():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    assert store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    assert not store.try_lock("acct", 1, LockMode.SHARED, "t2")
    assert store.release_all("t1") == 1
    assert store.try_lock("acct", 1, LockMode.SHARED, "t2")


def test_release_all_handles_same_bucket_reentry():
    """Two keys in the same bucket share a lock; release_all must not
    double-release it."""
    store = PartitionStore(0, [TableSpec("acct", n_buckets=1)])
    store.load("acct", 1, {})
    store.load("acct", 2, {})
    assert store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    assert store.try_lock("acct", 2, LockMode.EXCLUSIVE, "t1")
    # the shared lock word is tracked (and released) exactly once
    assert store.release_all("t1") == 1
    assert not store.is_locked("acct", 1)
    assert not store.is_locked("acct", 2)


def test_span_tracking_measures_lock_duration():
    store, clock = make_store(track_spans=True)
    store.load("acct", 1, {})
    clock["t"] = 10.0
    store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    clock["t"] = 25.0
    store.release_all("t1")
    assert store.spans.mean_span("acct", 1) == pytest.approx(15.0)


def test_unknown_table_raises():
    store, _ = make_store()
    with pytest.raises(KeyError):
        store.read("nope", 1)


def test_duplicate_table_rejected():
    store, _ = make_store()
    with pytest.raises(ValueError):
        store.create_table(TableSpec("acct"))


def test_version_of():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 5})
    assert store.version_of("acct", 1) == 0
    store.write("acct", 1, {"balance": 6})
    assert store.version_of("acct", 1) == 1
    assert store.version_of("acct", 99) is None


def test_lock_queries_never_make_a_lock_word():
    store, _ = make_store()
    store.load("acct", 1, {})
    assert not store.is_locked("acct", 1)
    assert not store.locked_by_other("acct", 1, "t1")
    assert store.table("acct").lock_words() == 0
    assert store.try_lock("acct", 1, LockMode.SHARED, "t1")
    assert store.table("acct").lock_words() == 1
    assert store.is_locked("acct", 1)
    assert not store.locked_by_other("acct", 1, "t1")   # mine
    assert store.locked_by_other("acct", 1, "t2")
    store.release_all("t1")
    assert not store.locked_by_other("acct", 1, "t2")   # free again
    assert store.table("acct").lock_words() == 1        # the word is kept


def test_clock_is_read_only_for_the_span_tracker():
    reads = []

    def now_fn():
        reads.append(1)
        return 0.0

    plain = PartitionStore(0, [TableSpec("acct")], now_fn=now_fn)
    plain.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    plain.try_lock("acct", 2, LockMode.EXCLUSIVE, "t1")
    plain.release_all("t1")
    assert not reads
    tracked = PartitionStore(0, [TableSpec("acct")], now_fn=now_fn,
                             track_spans=True)
    tracked.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    tracked.release_all("t1")
    assert len(reads) == 2


def test_redo_converges_whatever_the_store_already_saw():
    """Replicas and WAL replay re-apply writes to a store that may have
    seen any prefix of them: update falls back to insert, insert to
    write, delete of a missing record is a no-op."""
    store, _ = make_store()
    store.redo("update", "acct", 1, {"balance": 5})     # missed the insert
    assert store.read("acct", 1) == ({"balance": 5}, 0)
    store.redo("insert", "acct", 1, {"balance": 7})     # already landed
    assert store.read("acct", 1) == ({"balance": 7}, 1)
    store.redo("update", "acct", 1, {"balance": 8})
    assert store.read("acct", 1) == ({"balance": 8}, 2)
    store.redo("delete", "acct", 1, None)
    store.redo("delete", "acct", 1, None)
    assert store.read("acct", 1) is None
    with pytest.raises(ValueError):
        store.redo("upsert", "acct", 1, {})
