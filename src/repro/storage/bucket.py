"""One table of one partition: a record index plus per-bucket lock words.

Chiller's storage model takes two things from a hash bucket (Section 6):
the lock word lives in the bucket header, and every record that hashes
to one bucket shares it ("buckets are locked when any of their records
are being accessed").  That is all this module keeps of a bucket.  The
records of a table sit in one dict; a key's bucket is
``stable_hash(key) % n_buckets`` and matters only to locking, so record
operations never hash.  A bucket's lock word is made the first time the
bucket is locked and then kept, so at most ``n_buckets`` words exist.

Record identity is dict-key equality (``1`` and ``True`` name one
record); lock identity is the bucket ``stable_hash`` assigns, which
tells those two apart and rejects keys it cannot hash (floats).
"""

from __future__ import annotations

from typing import Iterator

from .._util import stable_hash
from .locks import LockWord
from .record import Key, Record


class BucketStore:
    """The records of one table within one partition, and their locks."""

    __slots__ = ("table", "n_buckets", "records", "_locks")

    def __init__(self, table: str, n_buckets: int = 1024):
        if n_buckets <= 0:
            raise ValueError("need at least one bucket")
        self.table = table
        self.n_buckets = n_buckets
        self.records: dict[Key, Record] = {}
        self._locks: dict[int, LockWord] = {}   # bucket index -> word

    def __len__(self) -> int:
        return len(self.records)

    # -- locks ----------------------------------------------------------

    def lock_for(self, key: Key) -> LockWord:
        """The lock word of ``key``'s bucket, made on first use."""
        index = stable_hash(key) % self.n_buckets
        lock = self._locks.get(index)
        if lock is None:
            lock = self._locks[index] = LockWord()
        return lock

    def lock_if_any(self, key: Key) -> LockWord | None:
        """The bucket's lock word if it was ever locked (never makes one)."""
        return self._locks.get(stable_hash(key) % self.n_buckets)

    def lock_words(self) -> int:
        """Lock words made so far (at most ``n_buckets``)."""
        return len(self._locks)

    # -- records --------------------------------------------------------

    def get(self, key: Key) -> Record | None:
        return self.records.get(key)

    def put(self, record: Record) -> None:
        """Insert or overwrite ``record`` (loader path)."""
        self.records[record.key] = record

    def insert(self, record: Record) -> bool:
        """Insert a *new* record; returns False if the key already exists."""
        if record.key in self.records:
            return False
        self.records[record.key] = record
        return True

    def delete(self, key: Key) -> bool:
        return self.records.pop(key, None) is not None

    def keys(self) -> Iterator[Key]:
        return iter(self.records)

