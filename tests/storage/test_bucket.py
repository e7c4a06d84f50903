"""Unit and property tests for bucket stores.

The chained layout the store had before (a ``Bucket`` object per hash
bucket, overflow chains) is kept here as ``_ReferenceBucketStore``: the
flat store must return what it returned and share lock words exactly
where it shared head buckets.
"""

import pytest
from hypothesis import given, strategies as st

from repro._util import stable_hash
from repro.storage import BucketStore, LockMode, LockWord, Record


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


def test_keys_and_scan():
    store = BucketStore("items", n_buckets=8)
    for key in range(5):
        store.put(Record(key, {"v": key}))
    assert sorted(store.keys()) == [0, 1, 2, 3, 4]


@given(st.dictionaries(st.integers(0, 10_000), st.integers(), max_size=200),
       st.integers(1, 64))
def test_store_behaves_like_dict(mapping, n_buckets):
    """A BucketStore is observationally a dict, whatever its geometry."""
    store = BucketStore("t", n_buckets=n_buckets)
    for key, value in mapping.items():
        store.put(Record(key, {"v": value}))
    assert len(store) == len(mapping)
    assert sorted(store.keys()) == sorted(mapping)
    for key, value in mapping.items():
        assert store.get(key).fields["v"] == value


def test_lock_words_are_made_on_first_lock_and_kept():
    store = BucketStore("items", n_buckets=64)
    for key in range(200):
        store.put(Record(key, {}))
    assert store.lock_words() == 0      # loading makes none
    assert store.lock_if_any(7) is None
    assert store.lock_words() == 0      # nor does asking
    word = store.lock_for(7)
    assert store.lock_if_any(7) is word and store.lock_for(7) is word
    assert store.lock_words() == 1
    for key in range(200):
        store.lock_for(key)
    assert store.lock_words() == len({stable_hash(k) % 64
                                      for k in range(200)}) <= 64


def test_equal_dict_keys_are_one_record_but_lock_their_own_buckets():
    """``1 == True`` (and ``(1,) == (True,)``) as dict keys, so each pair
    names one record, wherever the two hash.  Their lock words stay the
    ones stable_hash assigns, which tells them apart; a key it cannot
    hash (``1.0``) reads the record of ``1`` and cannot be locked."""
    store = BucketStore("t", n_buckets=64)
    store.put(Record(1, {"v": "int"}))
    store.put(Record((1,), {"v": "tuple"}))
    assert not store.insert(Record(True, {"v": "bool"}))
    assert store.get(True) is store.get(1) is store.get(1.0)
    assert store.get((True,)) is store.get((1,))
    assert len(store) == 2
    for key in (1, True, (1,), (True,)):
        assert store.lock_for(key) is store._locks[stable_hash(key) % 64]
    assert store.lock_for(1) is not store.lock_for(True)
    assert store.lock_for((1,)) is not store.lock_for((True,))
    for probe in (store.lock_for, store.lock_if_any):
        with pytest.raises(TypeError):
            probe(1.0)
    assert store.delete(True) and store.get(1) is None


# -- the chained layout, as the reference ------------------------------------


class _ReferenceBucket:
    """One bucket: a small record map plus an optional overflow chain."""

    def __init__(self):
        self.records = {}
        self.overflow = None
        self.lock = LockWord()  # only meaningful on head buckets

    def chain(self):
        node = self
        while node is not None:
            yield node
            node = node.overflow


class _ReferenceBucketStore:
    """The store as it was: every bucket materialised, records chained."""

    def __init__(self, n_buckets, bucket_capacity):
        self.bucket_capacity = bucket_capacity
        self._buckets = [_ReferenceBucket() for _ in range(n_buckets)]

    def __len__(self):
        return sum(len(b.records)
                   for head in self._buckets for b in head.chain())

    def head_bucket(self, key):
        return self._buckets[stable_hash(key) % len(self._buckets)]

    def lock_for(self, key):
        return self.head_bucket(key).lock

    def get(self, key):
        for bucket in self.head_bucket(key).chain():
            record = bucket.records.get(key)
            if record is not None:
                return record
        return None

    def put(self, record):
        head = self.head_bucket(record.key)
        for bucket in head.chain():
            if record.key in bucket.records:
                bucket.records[record.key] = record
                return
        self._insert_new(head, record)

    def insert(self, record):
        head = self.head_bucket(record.key)
        for bucket in head.chain():
            if record.key in bucket.records:
                return False
        self._insert_new(head, record)
        return True

    def delete(self, key):
        for bucket in self.head_bucket(key).chain():
            if key in bucket.records:
                del bucket.records[key]
                return True
        return False

    def keys(self):
        for head in self._buckets:
            for bucket in head.chain():
                yield from bucket.records

    def _insert_new(self, head, record):
        bucket = head
        while len(bucket.records) >= self.bucket_capacity:
            if bucket.overflow is None:
                bucket.overflow = _ReferenceBucket()
            bucket = bucket.overflow
        bucket.records[record.key] = record


_atoms = st.one_of(st.integers(-3, 40), st.text("abc", max_size=2))
_keys = st.one_of(_atoms, st.tuples(_atoms), st.tuples(_atoms, _atoms))
_ops = st.one_of(
    st.tuples(st.sampled_from(["put", "insert"]), _keys, st.integers()),
    st.tuples(st.sampled_from(["get", "delete"]), _keys),
    st.tuples(st.sampled_from(["keys", "len"])),
    st.tuples(st.just("lock"), _keys, st.sampled_from(list(LockMode)),
              st.sampled_from(["t1", "t2", "t3"])),
    st.tuples(st.just("unlock"), _keys, st.sampled_from(["t1", "t2", "t3"])),
)


def _apply(store, op):
    """Run one op; the result in a form two layouts can be compared by
    (iteration order is the layout's own business)."""
    name, args = op[0], op[1:]
    if name in ("put", "insert"):
        return getattr(store, name)(Record(args[0], {"v": args[1]}))
    if name == "get":
        record = store.get(args[0])
        return None if record is None else (record.key, record.fields)
    if name == "delete":
        return store.delete(args[0])
    if name == "keys":
        return sorted(store.keys(), key=repr)
    if name == "len":
        return len(store)
    lock = store.lock_for(args[0])
    if name == "lock":
        return lock.try_acquire(args[1], args[2]), sorted(lock.holders())
    held = lock.held_by(args[1])
    if held is not None:
        lock.release(args[1])
    return held, sorted(lock.holders())


@given(st.lists(_ops, max_size=120), st.integers(1, 16), st.integers(1, 4))
def test_flat_store_matches_the_chained_reference(ops, n_buckets, capacity):
    store = BucketStore("t", n_buckets=n_buckets)
    reference = _ReferenceBucketStore(n_buckets, capacity)
    for op in ops:
        assert _apply(store, op) == _apply(reference, op), op
    assert len(store) == len(reference)
    assert sorted(store.keys(), key=repr) == sorted(reference.keys(),
                                                    key=repr)
    # a lock word is shared exactly where a head bucket was
    keys = list({op[1]: None for op in ops if len(op) > 1})
    locked = {stable_hash(op[1]) % n_buckets
              for op in ops if op[0] in ("lock", "unlock")}
    assert store.lock_words() == len(locked)
    for a in keys:
        for b in keys:
            assert ((store.lock_for(a) is store.lock_for(b))
                    == (reference.head_bucket(a) is reference.head_bucket(b)))
