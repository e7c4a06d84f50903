"""The hot-record lookup table (paper Section 4.4).

Chiller stores explicit placements only for records whose contention
likelihood clears a threshold; everything else falls through to an
orthogonal default partitioner (hash or modulo), keeping the table tiny —
the paper measures ~10x smaller than Schism's per-record table.  The
same structure answers the region planner's "is this record hot?" test
(run-time decision step 1).

Since the adaptive-placement subsystem (:mod:`repro.placement`) landed,
the table is also **epoch-versioned**: live record migrations flip an
entry via :meth:`HotRecordTable.apply_move`, which bumps the table's
epoch and remembers each moved record's flip epoch.  A transaction
captures the epoch at start; when one of its reads later misses, the
executor asks :meth:`moved_since` to distinguish "this record never
existed" (a genuine READ_MISS, an application abort) from "this record
moved under me" (a retryable MIGRATED abort — the retry re-resolves
against the current epoch).  Static runs never call
:meth:`apply_move`, so the epoch stays 0 and every path below behaves
exactly as before.
"""

from __future__ import annotations

from typing import Mapping

from ..partitioning.base import LookupScheme
from ..storage.record import RecordId


class HotRecordTable:
    """Placements (and hotness) of the contended records."""

    def __init__(self, entries: Mapping[RecordId, int]):
        self._entries = dict(entries)
        self._epoch = 0
        # rid -> epoch of its latest placement flip; only records that
        # actually migrated carry an entry, so static tables pay nothing
        self._moved_at: dict[RecordId, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: RecordId) -> bool:
        return rid in self._entries

    def is_hot(self, table: str, key) -> bool:
        return (table, key) in self._entries

    def partition(self, table: str, key) -> int | None:
        return self._entries.get((table, key))

    def scheme(self, fallback) -> LookupScheme:
        """A catalog placement scheme: hot entries over ``fallback``.

        The scheme holds a *snapshot* of the entries; later
        :meth:`apply_move` flips are invisible to it.  Adaptive runs
        use :meth:`live_scheme` instead.
        """
        return LookupScheme(self._entries, fallback)

    def live_scheme(self, fallback) -> "EpochLookupScheme":
        """A placement scheme that reads *through* this table.

        Unlike :meth:`scheme`, placements follow the table as records
        migrate — this is what an adaptive run installs in its catalog
        so routing flips take effect the moment an epoch advances.
        """
        return EpochLookupScheme(self, fallback)

    # -- epoch-versioned migration support ---------------------------------

    @property
    def current_epoch(self) -> int:
        """Epoch of the newest applied placement flip (0: never moved)."""
        return self._epoch

    def apply_move(self, table: str, key, partition: int,
                   epoch: int) -> None:
        """Flip one record's placement as part of placement ``epoch``.

        Idempotent: re-applying the same (record, epoch, partition)
        flip — which happens when the flip is broadcast to every server
        and several of them share one catalog object — is a no-op, so
        both the single-process backends (one shared table) and the
        multiprocess workers (one table per process, several owned
        servers each) converge to the same state.
        """
        if epoch <= 0:
            raise ValueError("placement epochs start at 1")
        rid = (table, key)
        self._entries[rid] = partition
        self._moved_at[rid] = epoch
        self._epoch = max(self._epoch, epoch)

    def moved_since(self, table: str, key, epoch: int) -> bool:
        """Did this record migrate after placement epoch ``epoch``?

        This is what turns a read miss into a retryable MIGRATED abort:
        a transaction that captured ``epoch`` at start and later missed
        the record at its old home should re-resolve, not give up.
        """
        return self._moved_at.get((table, key), 0) > epoch

    @classmethod
    def from_assignment(cls, record_assignment: Mapping[RecordId, int],
                        likelihoods: Mapping[RecordId, float],
                        threshold: float) -> "HotRecordTable":
        """Keep only records whose likelihood clears ``threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        return cls({rid: part
                    for rid, part in record_assignment.items()
                    if likelihoods.get(rid, 0.0) >= threshold})

    @classmethod
    def from_stats(cls, likelihoods: Mapping[RecordId, float],
                   threshold: float, placement) -> "HotRecordTable":
        """Hot records under an *existing* layout (e.g. TPC-C warehouse
        partitioning): placements come from ``placement(table, key)``
        instead of a fresh graph cut.  This is how the Fig. 9/10
        experiments run Chiller's execution model over the same
        partitioning as the baselines."""
        from .contention import normalize
        normalized = normalize(dict(likelihoods))
        return cls({rid: placement(rid[0], rid[1])
                    for rid, value in normalized.items()
                    if value >= threshold})

    @classmethod
    def empty(cls) -> "HotRecordTable":
        return cls({})


class EpochLookupScheme:
    """A live, epoch-versioned catalog placement scheme.

    Same contract as :class:`~repro.partitioning.base.LookupScheme`,
    but placements read *through* a :class:`HotRecordTable` so the
    migration executor's :meth:`HotRecordTable.apply_move` flips are
    visible to routing immediately.  The extra surface
    (``current_epoch`` / ``moved_since`` / ``apply_move``) is what the
    database layer duck-types to decide whether a read miss might be a
    record that migrated mid-flight.
    """

    def __init__(self, table: HotRecordTable, fallback):
        self.table = table
        self.fallback = fallback

    @property
    def entries(self) -> dict[RecordId, int]:
        """Explicit per-record placements (the hot set + migrations).

        Exposed so worker-build pruning can keep explicitly-placed
        records everywhere, like :class:`LookupScheme` does.
        """
        return self.table._entries

    @property
    def current_epoch(self) -> int:
        return self.table.current_epoch

    def apply_move(self, table: str, key, partition: int,
                   epoch: int) -> None:
        self.table.apply_move(table, key, partition, epoch)

    def moved_since(self, table: str, key, epoch: int) -> bool:
        return self.table.moved_since(table, key, epoch)

    def partition_of(self, table: str, key) -> int:
        placed = self.table.partition(table, key)
        if placed is not None:
            return placed
        return self.fallback.partition_of(table, key)

    def lookup_table_size(self) -> int:
        return len(self.table) + self.fallback.lookup_table_size()
