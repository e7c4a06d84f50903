"""A partition: per-table record indexes plus lock bookkeeping.

``PartitionStore`` exposes exactly the operations that execution engines
ship to (possibly remote) partitions — lock/unlock via the bucket's
embedded lock word, a lock check that takes nothing (Chiller's inner
region), record read/write/insert/delete — and records
*contention spans* (time from lock acquisition to release) so experiments
can report how long hot records stay locked.  Only the lock operations
hash a key (to find its bucket), and a check in a table where nobody
holds a lock does not; record operations are one probe of the table's
record dict.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .bucket import BucketStore
from .locks import LockMode, LockWord
from .record import Key, Record


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

    def load(self, table: str, key: Key, fields: dict[str, Any]) -> None:
        """Bulk-load one record (no locking; used before the run starts)."""
        self._tables[table].put(Record(key, dict(fields)))

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

    def read(self, table: str, key: Key) -> tuple[dict[str, Any], int] | None:
        """Return (fields copy, version), or None if the key is absent."""
        record = self._tables[table].records.get(key)
        if record is None:
            return None
        return record.snapshot(), record.version

    def version_of(self, table: str, key: Key) -> int | None:
        record = self._tables[table].records.get(key)
        return None if record is None else record.version

    def write(self, table: str, key: Key, updates: dict[str, Any]) -> bool:
        """Apply ``updates`` in place; returns False if key is absent."""
        record = self._tables[table].records.get(key)
        if record is None:
            return False
        record.apply(updates)
        return True

    def insert(self, table: str, key: Key, fields: dict[str, Any]) -> bool:
        """Insert a new record; False if it already exists."""
        return self._tables[table].insert(Record(key, dict(fields)))

    def delete(self, table: str, key: Key) -> bool:
        return self._tables[table].delete(key)

    def redo(self, kind: str, table: str, key: Key,
             values: dict[str, Any] | None) -> None:
        """Apply one committed write to a store that may already have
        seen it, or missed the write before it (replicas, WAL replay):
        an update of an absent record inserts it, an insert of a present
        one overwrites it, so re-applying any prefix converges.
        """
        if kind == "update":
            if not self.write(table, key, values):
                self.insert(table, key, values)
        elif kind == "insert":
            if not self.insert(table, key, values):
                self.write(table, key, values)
        elif kind == "delete":
            self.delete(table, key)
        else:
            raise ValueError(f"unknown write kind {kind!r}")

    def __repr__(self) -> str:
        sizes = {name: len(store) for name, store in self._tables.items()}
        return f"PartitionStore(p{self.partition_id}, {sizes})"
