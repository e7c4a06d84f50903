"""A partition: per-table record indexes plus lock bookkeeping.

``PartitionStore`` exposes exactly the operations that execution engines
ship to (possibly remote) partitions — lock/unlock via the bucket's
embedded lock word, a lock check that takes nothing (Chiller's inner
region), record read/write/insert/delete — and records
*contention spans* (time from lock acquisition to release) so experiments
can report how long hot records stay locked.  Only the lock operations
hash a key (to find its bucket), and a check in a table where nobody
holds a lock does not; record operations are one probe of the table's
record dict, whose fields dicts are never mutated (``storage/bucket.py``).

A committed write set is applied by one call, :meth:`PartitionStore.apply`,
on a primary and on each replica alike.  Its merges ``{**old, **updates}``
go through a small memo keyed on the identity of both inputs: a replica
in the same process applies the very ``updates`` dict its primary merged
into the very ``old`` dict they shared, so it adopts the primary's merged
dict instead of building an equal one.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .bucket import BucketStore, Fields, Key, RecordId
from .locks import LockMode, LockWord

MERGE_MEMO_CAP = 512
"""Merges one generation of the memo holds.  When the current one is
full it becomes the previous one and the one before is dropped, so the
memo holds the last 512 to 1 024 merges: on the TPC-C Chiller cell a
replica applies a write set within the last 512 merges of its primary's,
so every in-process replica copy finds its merge.  (Evicting the
oldest entry one merge at a time cost about 30 % more per write in a
micro-benchmark.)"""

_merged: dict[tuple[int, int], tuple[Fields, Fields, Fields]] = {}
"""The memo's current generation: the pure merge ``{**old, **updates}``
keyed on the ids of both inputs, holding them (so neither id can be
reused while the entry lives) beside the result.  Stored dicts are never
mutated, so an entry cannot go stale; the cap only bounds it."""

_merged_before: dict[tuple[int, int], tuple[Fields, Fields, Fields]] = {}
"""The memo's previous generation."""


def merge(old: Fields, updates: Fields) -> Fields:
    """``{**old, **updates}``, the very dict an earlier call on the same
    two objects returned if the memo still holds it."""
    global _merged, _merged_before
    memo_key = (id(old), id(updates))
    entry = _merged.get(memo_key)
    if entry is None:
        entry = _merged_before.get(memo_key)
        if entry is None:
            if len(_merged) >= MERGE_MEMO_CAP:
                _merged_before, _merged = _merged, {}
            merged = {**old, **updates}
            _merged[memo_key] = (old, updates, merged)
            return merged
    return entry[2]


class TableSpec:
    """Configuration for creating one table inside every partition."""

    __slots__ = ("name", "n_buckets")

    def __init__(self, name: str, n_buckets: int = 1024):
        self.name = name
        self.n_buckets = n_buckets


class ContentionSpanTracker:
    """Per-record lock statistics: hold times and conflict outcomes.

    Besides contention spans (lock-hold durations), it counts lock
    attempts and NO_WAIT conflicts, which lets experiments compare the
    *measured* per-record conflict probability against the Poisson
    model's prediction (Section 4.1).
    """

    def __init__(self) -> None:
        self.total_span: dict[tuple[str, Key], float] = {}
        self.acquisitions: dict[tuple[str, Key], int] = {}
        self.attempts: dict[tuple[str, Key], int] = {}
        self.conflicts: dict[tuple[str, Key], int] = {}

    def record(self, table: str, key: Key, span: float) -> None:
        rid = (table, key)
        self.total_span[rid] = self.total_span.get(rid, 0.0) + span
        self.acquisitions[rid] = self.acquisitions.get(rid, 0) + 1

    def record_attempt(self, table: str, key: Key,
                       conflicted: bool) -> None:
        rid = (table, key)
        self.attempts[rid] = self.attempts.get(rid, 0) + 1
        if conflicted:
            self.conflicts[rid] = self.conflicts.get(rid, 0) + 1

    def mean_span(self, table: str, key: Key) -> float:
        rid = (table, key)
        count = self.acquisitions.get(rid, 0)
        if count == 0:
            return 0.0
        return self.total_span[rid] / count

    def conflict_rate(self, table: str, key: Key) -> float:
        """Measured P(lock attempt fails) for one record."""
        rid = (table, key)
        attempts = self.attempts.get(rid, 0)
        if attempts == 0:
            return 0.0
        return self.conflicts.get(rid, 0) / attempts


class PartitionStore:
    """All tables of one partition, with NO_WAIT lock operations."""

    def __init__(self, partition_id: int,
                 tables: Iterable[TableSpec],
                 now_fn: Callable[[], float] | None = None,
                 track_spans: bool = False):
        self.partition_id = partition_id
        self._tables: dict[str, BucketStore] = {}
        # table -> how many of the ``_held`` entries below name it: while
        # it is 0 no lock word of the table is held, so a check there
        # needs no bucket
        self._holds: dict[str, int] = {}
        for spec in tables:
            self.create_table(spec)
        self._now = now_fn or (lambda: 0.0)
        self.spans = ContentionSpanTracker() if track_spans else None
        # owner -> list of (table, key, lock_word, acquire_time); the
        # time is read only for the span tracker, and is 0.0 without one
        self._held: dict[object, list[tuple[str, Key, LockWord, float]]] = {}

    # -- schema ---------------------------------------------------------

    def create_table(self, spec: TableSpec) -> None:
        if spec.name in self._tables:
            raise ValueError(f"table {spec.name!r} already exists")
        self._tables[spec.name] = BucketStore(spec.name, spec.n_buckets)
        self._holds[spec.name] = 0

    def table(self, name: str) -> BucketStore:
        store = self._tables.get(name)
        if store is None:
            raise KeyError(f"no table {name!r} in partition "
                           f"{self.partition_id}")
        return store

    def table_names(self) -> list[str]:
        return list(self._tables)

    # -- loading ----------------------------------------------------------

    def load(self, table: str, key: Key, fields: Fields) -> None:
        """Bulk-load one record (no locking; used before the run starts)."""
        self._tables[table].put(key, fields)

    # -- lock operations (shipped as one-sided verbs) ---------------------

    def try_lock(self, table: str, key: Key, mode: LockMode,
                 owner: object) -> bool:
        """NO_WAIT acquire on the bucket lock guarding ``key``."""
        lock = self._tables[table].lock_for(key)
        already = lock.held_by(owner) is not None
        acquired = lock.try_acquire(mode, owner)
        if self.spans is not None:
            self.spans.record_attempt(table, key, not acquired)
        if not acquired:
            return False
        if not already:
            self._held.setdefault(owner, []).append(
                (table, key, lock,
                 0.0 if self.spans is None else self._now()))
            self._holds[table] += 1
        return True

    def check_lock(self, table: str, key: Key, mode: LockMode,
                   granted: set) -> bool:
        """Would :meth:`try_lock` grant ``key``'s bucket lock in ``mode``
        to an owner that holds nothing here?  A query: it takes nothing
        and makes no lock word.

        Chiller's inner region runs as one atomic event, so a lock it
        took would be released before anyone else could see it; it
        checks instead.  ``granted`` is the caller's set of the buckets
        its section was granted so far: with a span tracker, every check
        counts as an attempt and the first grant of a bucket as a
        zero-length hold, as an acquire and release in one event would.
        Without a tracker, a table where nobody holds a lock admits
        every check, and the key is not hashed.
        """
        if self.spans is None and not self._holds[table]:
            return True
        buckets = self._tables[table]
        lock = buckets.lock_if_any(key)
        ok = lock is None or lock.admits(mode)
        if self.spans is not None:
            self.spans.record_attempt(table, key, not ok)
            bucket = (table, buckets.bucket_of(key))
            if ok and bucket not in granted:
                granted.add(bucket)
                self.spans.record(table, key, 0.0)
        return ok

    def release_all(self, owner: object) -> int:
        """Release every lock ``owner`` holds here; returns count released."""
        entries = self._held.pop(owner, [])
        released = set()
        holds = self._holds
        for table, key, lock, acquired in entries:
            holds[table] -= 1
            if id(lock) not in released:
                lock.release(owner)
                released.add(id(lock))
            if self.spans is not None:
                self.spans.record(table, key, self._now() - acquired)
        return len(entries)

    def release_where(self, predicate: Callable[[object], bool]) -> int:
        """Release all locks of every owner ``predicate`` selects.

        The recovery path uses this to reap locks stranded by a dead
        worker: the owner ids (transaction ids) of a crashed process
        never come back, so nothing else will ever release them.
        Returns the number of lock entries released.
        """
        released = 0
        for owner in [o for o in self._held if predicate(o)]:
            released += self.release_all(owner)
        return released

    def owners_holding(self) -> list[object]:
        """Owners currently holding at least one lock here."""
        return list(self._held)

    def is_locked(self, table: str, key: Key) -> bool:
        lock = self._tables[table].lock_if_any(key)
        return lock is not None and not lock.is_free()

    def locked_by_other(self, table: str, key: Key, owner: object) -> bool:
        """Does anyone but ``owner`` hold the bucket lock guarding ``key``?

        A query: like :meth:`is_locked` it takes nothing and makes no
        lock word.
        """
        lock = self._tables[table].lock_if_any(key)
        return (lock is not None and not lock.is_free()
                and lock.held_by(owner) is None)

    # -- record operations (shipped as one-sided verbs) --------------------

    def read(self, table: str, key: Key) -> tuple[Fields, int] | None:
        """Return (fields, version), or None if the key is absent.  The
        fields are the stored dict, which no write changes."""
        store = self._tables[table]
        fields = store.records.get(key)
        if fields is None:
            return None
        return fields, store.versions.get(key, 0)

    def version_of(self, table: str, key: Key) -> int | None:
        store = self._tables[table]
        if key not in store.records:
            return None
        return store.versions.get(key, 0)

    def write(self, table: str, key: Key, updates: Fields) -> bool:
        """Store the record merged with ``updates`` and bump its version;
        returns False if key is absent.  (A commit applies its whole
        write set with :meth:`apply`.)"""
        store = self._tables[table]
        records = store.records
        old = records.get(key)
        if old is None:
            return False
        records[key] = merge(old, updates)
        versions = store.versions
        versions[key] = versions.get(key, 0) + 1
        return True

    def insert(self, table: str, key: Key, fields: Fields) -> bool:
        """Insert a new record; False if it already exists."""
        return self._tables[table].insert(key, fields)

    def delete(self, table: str, key: Key) -> bool:
        return self._tables[table].delete(key)

    def install(self, table: str, key: Key, fields: Fields,
                version: int) -> None:
        """Place a migrated record at the version it had at its old
        home, over any stale copy: a version that restarted at 0 (or
        was bumped by an overwrite) could come back to a value an
        optimistic reader saw before the move."""
        self._tables[table].put(key, fields, version)

    def apply(self, writes, redo: bool) -> list[tuple[RecordId, int]]:
        """Apply a committed write set of ``(kind, table, key, values)``
        writes in order; returns the ``((table, key), version)`` each
        produced.  A delete reports its version negated (a record at
        version ``v`` ends at ``v + 1``, reported as ``-(v + 1)``), so the
        commit log tells it from an update.

        An update merges into the record and bumps its version, an
        insert stores ``values`` at version 0, a delete drops the record.
        With ``redo`` the store may already have seen any of the writes,
        or missed the one before (replicas, WAL replay): an update of an
        absent record inserts it, an insert of a present one merges into
        it, so re-applying any prefix converges.  Without it each write
        meets the record its transaction locked; an update of an absent
        record or an insert of a present one changes nothing.
        """
        tables = self._tables
        versions: list[tuple[RecordId, int]] = []
        for kind, table, key, values in writes:
            store = tables[table]
            if kind == "insert" and (store.insert(key, values) or not redo):
                version = 0
            elif kind == "update" or kind == "insert":
                old = store.records.get(key)
                if old is not None:
                    store.records[key] = merge(old, values)
                    bumped = store.versions
                    version = bumped[key] = bumped.get(key, 0) + 1
                elif redo:
                    store.insert(key, values)
                    version = 0
                else:
                    version = None
            elif kind == "delete":
                store.records.pop(key, None)
                version = -1 - store.versions.pop(key, 0)
            else:
                raise ValueError(f"unknown write kind {kind!r}")
            versions.append(((table, key), version))
        return versions

    def __repr__(self) -> str:
        sizes = {name: len(store) for name, store in self._tables.items()}
        return f"PartitionStore(p{self.partition_id}, {sizes})"
