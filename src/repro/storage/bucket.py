"""Hash buckets embedding their own lock word.

Partitions are split into buckets; a record's bucket is derived from a
stable hash of its primary key.  Each bucket hosts multiple records and
chains an overflow bucket when full.  The *head* bucket carries the lock
word guarding every record in the chain — the paper's locking granularity
("buckets are locked when any of their records are being accessed").
"""

from __future__ import annotations

from typing import Any, Iterator

from .._util import HashMemo, stable_hash
from .locks import LockWord
from .record import Key, Record


class Bucket:
    """One bucket: a small record map plus an optional overflow chain."""

    __slots__ = ("records", "overflow", "lock")

    def __init__(self) -> None:
        self.records: dict[Key, Record] = {}
        self.overflow: Bucket | None = None
        self.lock = LockWord()  # only meaningful on head buckets

    def chain(self) -> Iterator["Bucket"]:
        node: Bucket | None = self
        while node is not None:
            yield node
            node = node.overflow


class BucketStore:
    """All buckets of one table within one partition."""

    def __init__(self, table: str, n_buckets: int = 1024,
                 bucket_capacity: int = 8, hasher: HashMemo | None = None):
        if n_buckets <= 0:
            raise ValueError("need at least one bucket")
        if bucket_capacity <= 0:
            raise ValueError("bucket capacity must be positive")
        self.table = table
        self.bucket_capacity = bucket_capacity
        self._buckets = [Bucket() for _ in range(n_buckets)]
        self._hash = HashMemo() if hasher is None else hasher

    def __len__(self) -> int:
        return sum(len(b.records)
                   for head in self._buckets for b in head.chain())

    def head_bucket(self, key: Key) -> Bucket:
        """The head bucket (and lock word) responsible for ``key``."""
        return self._buckets[self._hash(key) % len(self._buckets)]

    def lock_for(self, key: Key) -> LockWord:
        return self.head_bucket(key).lock

    def get(self, key: Key) -> Record | None:
        for bucket in self.head_bucket(key).chain():
            record = bucket.records.get(key)
            if record is not None:
                return record
        return None

    def put(self, record: Record) -> None:
        """Insert or overwrite ``record`` (loader path).

        A bulk load addresses every key once, so it hashes past the
        memo instead of filling it with keys the run may never touch.
        """
        head = self._buckets[stable_hash(record.key) % len(self._buckets)]
        for bucket in head.chain():
            if record.key in bucket.records:
                bucket.records[record.key] = record
                return
        self._insert_new(head, record)

    def insert(self, record: Record) -> bool:
        """Insert a *new* record; returns False if the key already exists."""
        head = self.head_bucket(record.key)
        for bucket in head.chain():
            if record.key in bucket.records:
                return False
        self._insert_new(head, record)
        return True

    def delete(self, key: Key) -> bool:
        for bucket in self.head_bucket(key).chain():
            if key in bucket.records:
                del bucket.records[key]
                return True
        return False

    def keys(self) -> Iterator[Key]:
        for head in self._buckets:
            for bucket in head.chain():
                yield from bucket.records

    def chain_length(self, key: Key) -> int:
        """Number of buckets in the chain serving ``key`` (diagnostics)."""
        return sum(1 for _ in self.head_bucket(key).chain())

    def _insert_new(self, head: Bucket, record: Record) -> None:
        bucket = head
        while len(bucket.records) >= self.bucket_capacity:
            if bucket.overflow is None:
                bucket.overflow = Bucket()
            bucket = bucket.overflow
        bucket.records[record.key] = record

    def scan(self, predicate: Any = None) -> Iterator[Record]:
        """Iterate all records (optionally filtered); used by loaders/tests."""
        for head in self._buckets:
            for bucket in head.chain():
                for record in bucket.records.values():
                    if predicate is None or predicate(record):
                        yield record
