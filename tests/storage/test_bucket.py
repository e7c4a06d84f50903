"""Unit and property tests for bucket stores."""

import pytest
from hypothesis import given, strategies as st

from repro.storage import BucketStore, Record


def test_put_and_get():
    store = BucketStore("items", n_buckets=4)
    store.put(Record(1, {"name": "banana"}))
    record = store.get(1)
    assert record is not None
    assert record.fields["name"] == "banana"


def test_get_missing_returns_none():
    store = BucketStore("items", n_buckets=4)
    assert store.get(99) is None


def test_insert_rejects_duplicate():
    store = BucketStore("items", n_buckets=4)
    assert store.insert(Record(1, {"v": 1}))
    assert not store.insert(Record(1, {"v": 2}))
    assert store.get(1).fields["v"] == 1


def test_put_overwrites():
    store = BucketStore("items", n_buckets=4)
    store.put(Record(1, {"v": 1}))
    store.put(Record(1, {"v": 2}))
    assert store.get(1).fields["v"] == 2
    assert len(store) == 1


def test_delete():
    store = BucketStore("items", n_buckets=4)
    store.put(Record(1, {"v": 1}))
    assert store.delete(1)
    assert store.get(1) is None
    assert not store.delete(1)


def test_overflow_chains_grow_and_serve_lookups():
    store = BucketStore("items", n_buckets=1, bucket_capacity=2)
    for key in range(10):
        store.put(Record(key, {"v": key}))
    assert len(store) == 10
    assert store.chain_length(0) >= 5
    for key in range(10):
        assert store.get(key).fields["v"] == key


def test_same_bucket_shares_lock_word():
    store = BucketStore("items", n_buckets=1)
    store.put(Record(1, {}))
    store.put(Record(2, {}))
    assert store.lock_for(1) is store.lock_for(2)


def test_distinct_buckets_have_distinct_locks():
    store = BucketStore("items", n_buckets=4096)
    locks = {id(store.lock_for(k)) for k in range(8)}
    assert len(locks) > 1


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        BucketStore("t", n_buckets=0)
    with pytest.raises(ValueError):
        BucketStore("t", bucket_capacity=0)


def test_keys_and_scan():
    store = BucketStore("items", n_buckets=8)
    for key in range(5):
        store.put(Record(key, {"v": key}))
    assert sorted(store.keys()) == [0, 1, 2, 3, 4]
    evens = [r.key for r in store.scan(lambda r: r.key % 2 == 0)]
    assert sorted(evens) == [0, 2, 4]


@given(st.dictionaries(st.integers(0, 10_000), st.integers(), max_size=200),
       st.integers(1, 64), st.integers(1, 8))
def test_store_behaves_like_dict(mapping, n_buckets, capacity):
    """A BucketStore is observationally a dict, whatever its geometry."""
    store = BucketStore("t", n_buckets=n_buckets, bucket_capacity=capacity)
    for key, value in mapping.items():
        store.put(Record(key, {"v": value}))
    assert len(store) == len(mapping)
    assert sorted(store.keys()) == sorted(mapping)
    for key, value in mapping.items():
        assert store.get(key).fields["v"] == value


# -- the key-hash memo behind head_bucket ------------------------------------


def head_index(store, key):
    return store._buckets.index(store.head_bucket(key))


def test_memoised_head_bucket_keeps_equal_but_distinct_keys_apart():
    """1, True and 1.0 are one dict key; their buckets (and so the lock
    words they share) must still be the ones stable_hash assigns."""
    from repro._util import stable_hash
    store = BucketStore("t", n_buckets=64)
    for key in (1, True, (1,), (True,)):
        for _ in range(2):      # second round answers from the memo
            assert head_index(store, key) == stable_hash(key) % 64
    assert head_index(store, 1) != head_index(store, True)
    assert head_index(store, (1,)) != head_index(store, (True,))
    for _ in range(2):
        with pytest.raises(TypeError):
            store.head_bucket(1.0)


def test_memo_is_bounded_and_the_loader_does_not_fill_it():
    from repro._util import HASH_MEMO_CAP
    store = BucketStore("t", n_buckets=256)
    for key in range(10 * HASH_MEMO_CAP):
        store.put(Record(key, {"v": key}))
    assert len(store._hash) == 0
    for key in range(10 * HASH_MEMO_CAP):
        assert store.get(key).fields["v"] == key
        assert len(store._hash) <= HASH_MEMO_CAP
    assert len(store) == 10 * HASH_MEMO_CAP


def test_partition_tables_and_database_stores_share_one_memo():
    """A key hashes the same wherever it is addressed, so one memo
    serves every table, primary and replica of a database."""
    from repro.analysis import ProcedureRegistry
    from repro.partitioning import HashScheme
    from repro.sim import Cluster
    from repro.storage import Catalog, TableSpec
    from repro.txn import Database
    db = Database(Cluster(2), Catalog(2, HashScheme(2)),
                  [TableSpec("a", n_buckets=8), TableSpec("b", n_buckets=8)],
                  ProcedureRegistry(), n_replicas=1)
    stores = [db.store(0), db.store(1),
              db.replicas.store_on(1, 0), db.replicas.store_on(0, 1)]
    memos = {id(store.table(name)._hash)
             for store in stores for name in ("a", "b")}
    assert len(memos) == 1
