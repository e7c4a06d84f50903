"""Per-server write-ahead log for the commit path.

Each server a process owns gets one append-only log file recording the
coordinator/participant state transitions of the commit FSM
(:mod:`repro.txn.commit_fsm`).  A record is a tuple of builtin values
written by :func:`repro.sim.codec.pack_record` — a CRC-32 and the
tuple in the wire codec's pinned ``marshal`` format — framed by a
4-byte little-endian length prefix.  A record holding anything marshal
cannot write (an Enum, a ``NamedTuple``) raises ``CodecError`` at
:meth:`WriteAheadLog.append`; nothing is pickled.  A WAL file is
readable by any later process of the same build.

Record shapes (first element is the record type):

``(R_PREPARE, txn_id, role, peer, payload)``
    The txn reached PREPARED here.  ``role`` says whose log this is for
    the txn: the coordinator logs its full write-set (``payload`` is a
    tuple of ``(partition, writes)`` pairs, ``peer`` is the home
    server); a participant logs only the writes stashed for it
    (``payload`` is its ``writes``, ``peer`` is the coordinator server
    that will decide).  ``writes`` is a tuple of the
    ``(kind, table, key, values)`` tuples the coordinator evaluated —
    the one write shape, logged as it was applied.

``(R_DECISION, txn_id, committed)``
    The commit/abort decision.  At the coordinator this record *is* the
    commit point and is always synced before the decision is announced;
    participants log it unsynced (the coordinator's copy is
    authoritative — that is what presumed abort queries).

``(R_END, txn_id)``
    The txn is fully resolved here; recovery may skip it.

**Durability model.**  ``mode="fsync"`` syncs every append;
``mode="group"`` batches fsyncs (every ``group_size`` appends), but a
*forced* append — the coordinator's decision record — always syncs:
group commit trades latency of non-decision records, never the commit
point.  Note that surviving a SIGKILL'd worker process only requires
``flush()`` (the page cache outlives the process); fsync is what models
the cost of surviving a machine crash, which is the durability level
the paper's replicated in-memory design targets.

Recovery is redo-only: writes are buffered at the coordinator until the
decision, so an aborted txn has nothing to undo, and redo is idempotent
because writes carry absolute evaluated values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from struct import Struct

from .._stats import stat
from ..sim.codec import CodecError, pack_record, unpack_record

WAL_MODES = ("off", "fsync", "group")
"""Durability modes a run can select (``RunConfig.wal``)."""

R_PREPARE = 1
R_DECISION = 2
R_END = 3

ROLE_COORDINATOR = 0
ROLE_PARTICIPANT = 1
ROLE_INNER = 2
"""A Chiller inner region's unilateral local commit: prepare and
decision land back-to-back in the host's log (there is no vote), and a
prepare without a decision means the critical section never committed
— nothing is in doubt."""

_S_LEN = Struct("<I")

APPEND_US = 0.9
"""Modeled coordinator CPU/device time per WAL append."""

FSYNC_US = 18.0
"""Modeled device time per fsync (NVMe-class flush)."""


@dataclass(frozen=True)
class WalSpec:
    """Picklable recipe for a run's durability policy."""

    mode: str = "off"
    dir: str | None = None
    """Directory holding ``server-<id>.wal`` files.  On the mp backend
    the parent assigns one shared directory before forking, so a
    respawned worker finds its predecessor's logs."""

    group_size: int = 8
    """Appends per fsync under group commit (forced syncs reset it)."""

    @property
    def enabled(self) -> bool:
        return self.mode != "off"


def as_wal_spec(mode: str) -> WalSpec:
    """The spec of ``RunConfig.wal``'s mode name."""
    if mode not in WAL_MODES:
        raise ValueError(f"unknown wal mode {mode!r} "
                         f"(expected one of {WAL_MODES})")
    return WalSpec(mode=mode)


@dataclass
class RecoveryStats:
    """Durability/recovery counters, surfaced through ``Metrics``.

    Picklable; multiprocess workers ship theirs back to the parent,
    which folds them by the rules declared here.
    """

    wal_mode: str = stat("off", fold="label")
    wal_appends: int = stat(timeline="wal_appends")
    wal_fsyncs: int = stat(timeline="wal_fsyncs")
    wal_bytes: int = stat(timeline="wal_bytes")
    recoveries: int = stat(timeline="recoveries")
    """WAL replays performed (one per restarted process that found
    logs to replay)."""

    txns_redone: int = stat(timeline="txns_redone")
    """Committed txns whose writes were re-applied from the log."""

    in_doubt_resolved: int = stat(timeline="in_doubt_resolved")
    """Prepared-but-undecided txns resolved at recovery (by a
    coordinator query or presumed abort)."""

    controller_failovers: int = stat(timeline="controller_failovers")
    """Times the placement-controller lease moved to a new leader."""

    @property
    def any_activity(self) -> bool:
        return (self.wal_appends > 0 or self.recoveries > 0
                or self.controller_failovers > 0)


def wal_path(directory: str, server_id: int) -> str:
    return os.path.join(directory, f"server-{server_id}.wal")


class WriteAheadLog:
    """One server's append-only log."""

    __slots__ = ("path", "spec", "stats", "_fh", "_pending")

    def __init__(self, path: str, spec: WalSpec,
                 stats: RecoveryStats | None = None):
        self.path = path
        self.spec = spec
        self.stats = stats if stats is not None else RecoveryStats()
        self.stats.wal_mode = spec.mode
        self._fh = open(path, "ab")
        self._pending = 0

    def append(self, record: tuple, sync: bool | None = None) -> None:
        """Append one record; durability per the spec's mode.

        ``sync=True`` forces an fsync regardless of mode (the
        coordinator's decision record — the commit point).
        """
        body = pack_record(record)
        self._fh.write(_S_LEN.pack(len(body)))
        self._fh.write(body)
        self.stats.wal_appends += 1
        self.stats.wal_bytes += _S_LEN.size + len(body)
        self._pending += 1
        if sync or self.spec.mode == "fsync" or (
                self.spec.mode == "group"
                and self._pending >= self.spec.group_size):
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.stats.wal_fsyncs += 1
            self._pending = 0
        else:
            # a flush (no fsync) is all process-crash durability needs:
            # the page cache outlives a SIGKILL'd writer
            self._fh.flush()

    def append_cost_us(self, sync: bool = False) -> float:
        """Modeled time one append charges the coordinator."""
        cost = APPEND_US
        if sync or self.spec.mode == "fsync":
            cost += FSYNC_US
        elif self.spec.mode == "group":
            # amortized: each append carries 1/group_size of an fsync
            cost += FSYNC_US / max(1, self.spec.group_size)
        return cost

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


def replay_wal(path: str) -> list[tuple]:
    """All decodable records of one log, in append order.

    Tolerates a torn tail — a crash mid-append leaves a short or
    undecodable final record, which simply was not durable yet.  Replay
    stops at the first frame that is not exactly one record: a length
    corrupted to swallow the next frame ends the log there rather than
    silently dropping that frame and carrying on.
    """
    records: list[tuple] = []
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return records
    offset = 0
    while offset + _S_LEN.size <= len(data):
        (length,) = _S_LEN.unpack_from(data, offset)
        start = offset + _S_LEN.size
        if start + length > len(data):
            break  # torn tail
        try:
            record = unpack_record(data[start:start + length])
        except CodecError:
            break  # torn/corrupt tail: nothing after it is trustworthy
        records.append(record)
        offset = start + length
    return records
