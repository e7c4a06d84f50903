"""Shared transaction types: requests and outcomes.

A write is a plain ``(kind, table, key, values)`` tuple from the moment
it is evaluated (``kind`` is ``"update"``, ``"insert"`` or ``"delete"``;
``values`` is ``None`` for a delete).  The commit and prepare verbs, the
WAL and the replicas all receive that same tuple.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Mapping

_txn_counter = itertools.count(1)

TXN_ID_NAMESPACE_SPAN = 2 ** 40
"""Ids per :func:`seed_txn_ids` namespace — far beyond any run's count."""


def next_txn_id() -> int:
    """Globally unique transaction id (process-wide, deterministic)."""
    return next(_txn_counter)


def seed_txn_ids(namespace: int) -> None:
    """Restart the id counter inside a disjoint namespace.

    Transaction ids double as lock owners, so two *processes*
    coordinating transactions against the same logical database (the
    multiprocess backend's workers) must never mint the same id — a
    collision would let one transaction release or re-enter another's
    locks.  Each worker seeds its own namespace before driving load.
    """
    global _txn_counter
    _txn_counter = itertools.count(namespace * TXN_ID_NAMESPACE_SPAN + 1)


# CPU cost per coordinator action, in microseconds: what makes
# throughput saturate once an engine's core is busy (Fig. 9a's plateau).

CPU_DISPATCH_US = 0.4
"""Assembling and issuing one batch of network operations."""

CPU_OP_US = 0.25
"""Coordinator-side logic per *remote* record operation (posting and
completing an RDMA verb costs real CPU)."""

CPU_LOCAL_OP_US = 0.08
"""Per-operation cost against the local partition (plain memory access
path).  The local/remote CPU gap is what makes locality pay off even
when coroutines hide network latency."""

CPU_BATCHED_OP_US = 0.05
"""Coordinator-side cost of each verb after the first in a
doorbell-batched chain: the doorbell write and completion poll are
amortized over the chain, so only WQE assembly remains."""

CPU_APPLY_US = 0.15
"""Evaluating and applying one buffered write at commit time."""

CPU_CHECK_US = 0.1
"""Evaluating one CHECK predicate."""

CPU_REPLICA_APPLY_US = 0.05
"""A replica applying one shipped record value (a memcpy, cheaper than
evaluating the write at the coordinator)."""


@dataclass(frozen=True)
class TxnRequest:
    """One transaction to execute: a procedure name plus its parameters."""

    proc: str
    params: Mapping[str, Any]
    home: int = 0
    """Server id of the coordinating execution engine."""


class AbortReason(enum.Enum):
    LOCK_CONFLICT = "lock_conflict"
    VALIDATION = "validation"      # OCC validation failure
    LOGICAL = "logical"            # a CHECK predicate failed
    READ_MISS = "read_miss"        # referenced record does not exist
    DUPLICATE_KEY = "duplicate_key"
    INNER_CONFLICT = "inner_conflict"  # inner host failed its local locks
    MIGRATED = "migrated"          # record moved mid-flight (retryable):
    # the read resolved against a placement epoch that a live migration
    # has since advanced; a retry re-resolves and finds the new home
    PEER_DOWN = "peer_down"        # a participant worker died mid-txn
    # (retryable): the mp runtime short-circuits verbs to dead workers;
    # retries succeed once the parent respawns the worker


@dataclass(slots=True)
class Outcome:
    """The result of one transaction attempt.

    A run holds one per attempt and an mp worker ships them all home
    at quiescence, so the class is slotted and pickles as a flat
    argument tuple (no per-instance dict on either side of the pipe).
    """

    txn_id: int
    proc: str
    committed: bool
    reason: AbortReason | None = None
    start: float = 0.0
    end: float = 0.0
    partitions: frozenset[int] = frozenset()
    inner_host: int | None = None
    used_two_region: bool = False
    read_set: tuple = ()
    """Records actually read, as ``(table, key)`` pairs.  Populated only
    when the executor's ``record_footprints`` flag is on (adaptive
    placement samples committed footprints); empty otherwise so the
    default path carries no extra weight."""

    write_set: tuple = ()
    """Records actually written; same gating as :attr:`read_set`."""

    def __reduce__(self) -> tuple:
        return (Outcome, _outcome_fields(self))

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def distributed(self) -> bool:
        return len(self.partitions) > 1

    def __repr__(self) -> str:
        status = "commit" if self.committed else f"abort({self.reason.value})"
        return f"Outcome(t{self.txn_id} {self.proc} {status})"


_outcome_fields = operator.attrgetter(*Outcome.__slots__)
"""Every field of an :class:`Outcome`, in constructor order."""


@dataclass
class CommitLog:
    """Read/write versions of one committed transaction (for the
    serializability checker).  A delete's write version is negated, as
    ``PartitionStore.apply`` reports it."""

    txn_id: int
    reads: list[tuple[tuple[str, Any], int]] = field(default_factory=list)
    writes: list[tuple[tuple[str, Any], int]] = field(default_factory=list)
