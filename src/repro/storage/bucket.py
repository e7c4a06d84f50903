"""One table of one partition: a record index plus per-bucket lock words.

A record is a primary key mapped to a flat dict of named fields, and a
version (bumped on every write; read by the OCC validator).  Records are
identified globally by ``RecordId = (table_name, primary_key)``.

Chiller's storage model takes two things from a hash bucket (Section 6):
the lock word lives in the bucket header, and every record that hashes
to one bucket shares it ("buckets are locked when any of their records
are being accessed").  That is all this module keeps of a bucket.  The
records of a table sit in one dict; a key's bucket is
``stable_hash(key) % n_buckets`` and matters only to locking, so record
operations never hash.  A bucket's lock word is made the first time the
bucket is locked and then kept, so at most ``n_buckets`` words exist.

A stored fields dict is never mutated: a write stores a new one.  So a
dict is stored as handed over, one dict may be shared by every copy of
a record (replicas, replicated tables), and a reader gets the stored
dict itself; what it holds never changes under it.  A version lives in
a dict beside the records that holds only versions above 0.

Record identity is dict-key equality (``1`` and ``True`` name one
record); lock identity is the bucket ``stable_hash`` assigns, which
tells those two apart and rejects keys it cannot hash (floats).
"""

from __future__ import annotations

from typing import Any, Iterator

from .._util import stable_hash
from .locks import LockWord

Key = Any
RecordId = tuple[str, Key]
Fields = dict[str, Any]


class BucketStore:
    """The records of one table within one partition, and their locks."""

    __slots__ = ("table", "n_buckets", "records", "versions", "_locks")

    def __init__(self, table: str, n_buckets: int = 1024):
        if n_buckets <= 0:
            raise ValueError("need at least one bucket")
        self.table = table
        self.n_buckets = n_buckets
        self.records: dict[Key, Fields] = {}
        self.versions: dict[Key, int] = {}      # only versions above 0
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

    def bucket_of(self, key: Key) -> int:
        """The index of ``key``'s bucket (the identity of its lock word)."""
        return stable_hash(key) % self.n_buckets

    def lock_words(self) -> int:
        """Lock words made so far (at most ``n_buckets``)."""
        return len(self._locks)

    # -- records --------------------------------------------------------

    def get(self, key: Key) -> Fields | None:
        return self.records.get(key)

    def put(self, key: Key, fields: Fields, version: int = 0) -> None:
        """Store ``fields`` at ``version`` over any copy (loader path)."""
        self.records[key] = fields
        if version:
            self.versions[key] = version
        else:
            self.versions.pop(key, None)

    def insert(self, key: Key, fields: Fields) -> bool:
        """Insert a *new* record; returns False if the key already exists."""
        if key in self.records:
            return False
        self.records[key] = fields
        return True

    def delete(self, key: Key) -> bool:
        self.versions.pop(key, None)
        return self.records.pop(key, None) is not None

    def keys(self) -> Iterator[Key]:
        return iter(self.records)
