"""The commit decision as an explicit, backend-neutral state machine.

Before this module, commit/abort logic was implicit: each executor
inlined its own "replicate, then apply+release" tail, and there was no
seam where a log record or a recovery protocol could attach.  The
:class:`CommitFsm` lifts that decision into one coordinator-side FSM

    INITIALIZE --> PREPARED --> COMMITTED
         \\             \\
          +--> ABORTED <-+

whose transitions are the *only* place durability hooks in (modeled on
tippers-commit's coordinator/participant machines).  Every executor
finishes a transaction through it, in one round that applies and
releases (or only releases) at each touched partition.

**With durability on**, transitions persist to the per-server
write-ahead log (:mod:`repro.storage.wal`) and the protocol becomes a
real presumed-abort 2PC: the coordinator logs its PREPARE (full
write-set), ships ``prepare`` verbs to remote written partitions (each
participant logs and stashes the writes), force-logs the DECISION (the
commit point), then ships ``decision`` verbs that apply the stashed
writes and release.  Because writes are buffered until the decision,
recovery is redo-only; because redo writes carry absolute evaluated
values, it is idempotent.  A prepared txn whose coordinator log shows
no decision is *presumed aborted*; a participant's prepared-but-
undecided txn stays locked (in doubt) until a ``recover_query`` against
the coordinator resolves it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..sim import Compute, Round, Sleep
from ..sim.codec import DispatchContext, OpDescriptor, op_handler
from ..storage.wal import (R_DECISION, R_END, R_PREPARE, ROLE_COORDINATOR,
                           ROLE_INNER, ROLE_PARTICIPANT, replay_wal)
from .common import CPU_APPLY_US, CPU_DISPATCH_US, AbortReason


class TxnPhase(enum.Enum):
    INITIALIZE = "initialize"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


_LEGAL: dict[TxnPhase, frozenset[TxnPhase]] = {
    TxnPhase.INITIALIZE: frozenset({TxnPhase.PREPARED, TxnPhase.ABORTED}),
    TxnPhase.PREPARED: frozenset({TxnPhase.COMMITTED, TxnPhase.ABORTED}),
    TxnPhase.COMMITTED: frozenset(),
    TxnPhase.ABORTED: frozenset(),
}


class InvalidTransition(RuntimeError):
    """The FSM was driven through an illegal phase change."""


class SimulatedCrash(Exception):
    """Raised by a crash hook to model dying at a protocol point."""

    def __init__(self, point: str):
        super().__init__(point)
        self.point = point


CRASH_HOOK: Callable[[str], None] | None = None
"""Test seam: when set, called at every named protocol point
(``coord:before_prepare``, ``part:after_decision``, ...).  The
crash-matrix tests install a hook that raises :class:`SimulatedCrash`
at the nth occurrence of a chosen point."""


def crash_point(name: str) -> None:
    if CRASH_HOOK is not None:
        CRASH_HOOK(name)


# -- prepared-txn / decision table --------------------------------------------

@dataclass(frozen=True)
class PreparedEntry:
    """One participant-side prepared txn: writes stashed, locks held."""

    partition: int
    txn_id: int
    coordinator: int
    writes: tuple


class CommitTable:
    """Process-wide 2PC bookkeeping: prepared stashes and decisions.

    The stash holds each participant-side prepared txn's writes until
    its decision arrives (or recovery resolves it); the decision table
    is what ``recover_query`` answers from.  Decisions are recorded
    only on durability-enabled runs, so growth is bounded by one run's
    committed count — acceptable for the reproduction's run lengths.
    """

    def __init__(self) -> None:
        self._stash: dict[tuple[int, int], PreparedEntry] = {}
        self._decisions: dict[int, bool] = {}

    def stash(self, partition: int, txn_id: int, coordinator: int,
              writes: tuple) -> None:
        self._stash[(partition, txn_id)] = PreparedEntry(
            partition, txn_id, coordinator, writes)

    def pop_stash(self, partition: int, txn_id: int) -> PreparedEntry | None:
        return self._stash.pop((partition, txn_id), None)

    def stashed_entries(self) -> list[PreparedEntry]:
        return list(self._stash.values())

    def in_doubt_txns(self) -> set[int]:
        """Txn ids with a live prepared stash (their locks must survive
        dead-owner reaping until the decision is known)."""
        return {txn_id for _pid, txn_id in self._stash}

    def record_decision(self, txn_id: int, committed: bool) -> None:
        self._decisions[txn_id] = committed

    def decision_of(self, txn_id: int) -> bool | None:
        return self._decisions.get(txn_id)


# -- write application ---------------------------------------------------------

def apply_wire_writes(store, writes) -> list:
    """Apply ``(kind, table, key, values)`` writes to a store; returns
    the committed ``((table, key), version)`` pairs."""
    versions: list[tuple[tuple[str, Any], int]] = []
    for kind, table, key, values in writes:
        rid = (table, key)
        if kind == "update":
            store.write(table, key, values)
            versions.append((rid, store.version_of(table, key)))
        elif kind == "insert":
            store.insert(table, key, values)
            versions.append((rid, 0))
        else:
            old = store.version_of(table, key)
            store.delete(table, key)
            versions.append((rid, (old or 0) + 1))
    return versions


# -- the coordinator FSM -------------------------------------------------------

class CommitFsm:
    """Drives one transaction's commit protocol at the coordinator.

    ``executor`` supplies the cost model, network rounds, and verb
    builders; ``state`` is its mutable per-txn state.  The FSM owns the
    phase variable, the write-set once prepared, and — when the home
    server has a WAL — the durability of every transition.
    """

    __slots__ = ("ex", "state", "phase", "writes", "wal", "_prepared",
                 "_logged_prepare")

    def __init__(self, executor, state):
        self.ex = executor
        self.state = state
        self.phase = TxnPhase.INITIALIZE
        self.writes: dict[int, list] = {}
        self.wal = executor.db.wal_of(state.request.home)
        self._prepared: set[int] = set()
        self._logged_prepare = False

    def _transition(self, to: TxnPhase) -> None:
        if to not in _LEGAL[self.phase]:
            raise InvalidTransition(
                f"txn {self.state.txn_id}: illegal commit-FSM transition "
                f"{self.phase.value} -> {to.value}")
        self.phase = to

    # -- prepare -----------------------------------------------------------

    def prepare(self, writes: dict[int, list]) -> Generator:
        """INITIALIZE -> PREPARED: persist the write-set, prepare remote
        participants, replicate.  Returns False (leaving the FSM in
        INITIALIZE, abort pending) if a participant cannot prepare."""
        ex, state = self.ex, self.state
        self.writes = writes
        if self.wal is not None:
            t0 = ex.span_start(state)
            ok = yield from self._durable_prepare(writes)
            if t0 is not None:
                ex.emit_span(state, "prepare", t0, ok)
            if not ok:
                return False
        t0 = ex.span_start(state)
        yield from ex.replicate(state, writes)
        if t0 is not None and writes and ex.db.replicas is not None:
            ex.emit_span(state, "replicate", t0)
        self._transition(TxnPhase.PREPARED)
        return True

    def _durable_prepare(self, writes: dict[int, list]) -> Generator:
        ex, state = self.ex, self.state
        home = state.request.home
        crash_point("coord:before_prepare")
        wire = tuple((pid, tuple(writes[pid])) for pid in sorted(writes))
        self.wal.append((R_PREPARE, state.txn_id, ROLE_COORDINATOR,
                         home, wire))
        self._logged_prepare = True
        yield Compute(self.wal.append_cost_us())
        crash_point("coord:after_prepare")
        remote = [pid for pid in sorted(writes) if pid != home]
        if not remote:
            return True
        items = [(pid, _prepare_op(ex.db, pid, tuple(writes[pid]),
                                   state.txn_id, home))
                 for pid in remote]
        self._prepared = set(remote)
        yield Compute(CPU_DISPATCH_US
                      + ex.round_cpu((pid for pid, _ in items), home))
        results = yield Round(items, "prepare")
        for result in results:
            if result[0] != "ok":
                state.abort_reason = AbortReason.PEER_DOWN
                return False
        return True

    # -- decide ------------------------------------------------------------

    def commit(self) -> Generator:
        """PREPARED -> COMMITTED: log the decision (the commit point),
        then apply + release everywhere."""
        ex, state = self.ex, self.state
        t0 = ex.span_start(state)
        if self.wal is None:
            self._transition(TxnPhase.COMMITTED)
            yield from self._decision_round(True)
        else:
            crash_point("coord:before_decision")
            # the forced sync is the commit point: once this record is
            # durable the txn is committed no matter who dies next
            self.wal.append((R_DECISION, state.txn_id, True), sync=True)
            ex.db.commit_table.record_decision(state.txn_id, True)
            self._transition(TxnPhase.COMMITTED)
            yield Compute(self.wal.append_cost_us(sync=True))
            crash_point("coord:after_decision")
            yield from self._decision_round(True)
            self.wal.append((R_END, state.txn_id))
        if t0 is not None:
            ex.emit_span(state, "commit", t0)

    def abort(self) -> Generator:
        """-> ABORTED: log the (presumed) abort if a prepare was logged,
        release every participant."""
        ex, state = self.ex, self.state
        t0 = ex.span_start(state)
        if self.wal is not None and self._logged_prepare:
            # unforced: presumed abort means absence already implies it
            self.wal.append((R_DECISION, state.txn_id, False))
            ex.db.commit_table.record_decision(state.txn_id, False)
        self._transition(TxnPhase.ABORTED)
        yield from self._decision_round(False)
        if self.wal is not None and self._logged_prepare:
            self.wal.append((R_END, state.txn_id))
        if t0 is not None:
            ex.emit_span(state, "release", t0, ok=False)

    def mark_aborted(self) -> None:
        """Transition-only abort for failures that hold nothing (OCC's
        lock-free read phase): no release round, no log record."""
        self._transition(TxnPhase.ABORTED)

    def _decision_round(self, committed: bool) -> Generator:
        """Announce the decision, the transaction's one finishing
        round: prepared participants get a ``decision`` verb (they hold
        the writes); every other touched partition a combined
        apply+release (or a bare release)."""
        ex, state = self.ex, self.state
        writes = self.writes
        targets = set(state.touched) | set(writes)
        if not targets:
            return
        total = (sum(len(ws) for ws in writes.values()) if committed
                 else 0)
        yield Compute(CPU_DISPATCH_US + CPU_APPLY_US * total)
        items = []
        for pid in sorted(targets):
            if pid in self._prepared:
                items.append((pid, _decision_op(ex.db, pid, state.txn_id,
                                                committed)))
            elif committed:
                items.append((pid, _commit_op(ex.db, pid,
                                              writes.get(pid, []),
                                              state.txn_id)))
            else:
                items.append((pid, _release_op(ex.db, pid, state.txn_id)))
        results = yield Round(items, "commit" if committed else "release")
        if committed:
            for versions in results:
                # a participant lost mid-round replies PEER_DOWN; the
                # decision stands — it resolves itself via
                # recover_query when the worker returns
                if isinstance(versions, list):
                    state.write_versions.extend(versions)


# -- participant verbs ---------------------------------------------------------

def _commit_op(db, pid: int, writes: list[tuple],
               txn_id: int) -> OpDescriptor:
    return OpDescriptor("commit", pid,
                        args=(tuple(writes),
                              txn_id)).bind(db.dispatch_context)


@op_handler("commit")
def _do_commit(ctx: DispatchContext, d: OpDescriptor) -> list:
    store = ctx.store_of(d.partition)
    writes, txn_id = d.args
    versions = apply_wire_writes(store, writes)
    store.release_all(txn_id)
    return versions


def _release_op(db, pid: int, txn_id: int) -> OpDescriptor:
    return OpDescriptor("release", pid,
                        args=(txn_id,)).bind(db.dispatch_context)


@op_handler("release")
def _do_release(ctx: DispatchContext, d: OpDescriptor) -> int:
    (txn_id,) = d.args
    return ctx.store_of(d.partition).release_all(txn_id)


def _prepare_op(db, pid: int, writes: tuple, txn_id: int,
                coordinator: int) -> OpDescriptor:
    return OpDescriptor("prepare", pid,
                        args=(writes, txn_id,
                              coordinator)).bind(db.dispatch_context)


@op_handler("prepare")
def _do_prepare(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    writes, txn_id, coordinator = d.args
    crash_point("part:before_prepare")
    wal = None if ctx.wal_of is None else ctx.wal_of(d.partition)
    if wal is not None:
        wal.append((R_PREPARE, txn_id, ROLE_PARTICIPANT, coordinator,
                    writes))
    crash_point("part:after_prepare")
    ctx.commits.stash(d.partition, txn_id, coordinator, writes)
    return ("ok",)


def _decision_op(db, pid: int, txn_id: int,
                 committed: bool) -> OpDescriptor:
    return OpDescriptor("decision", pid,
                        args=(txn_id, committed)).bind(db.dispatch_context)


@op_handler("decision")
def _do_decision(ctx: DispatchContext, d: OpDescriptor) -> list:
    txn_id, committed = d.args
    store = ctx.store_of(d.partition)
    wal = None if ctx.wal_of is None else ctx.wal_of(d.partition)
    if wal is not None:
        wal.append((R_DECISION, txn_id, bool(committed)))
    crash_point("part:after_decision")
    entry = None if ctx.commits is None else ctx.commits.pop_stash(
        d.partition, txn_id)
    versions: list = []
    if committed and entry is not None:
        versions = apply_wire_writes(store, entry.writes)
    store.release_all(txn_id)
    if wal is not None:
        wal.append((R_END, txn_id))
    return versions


def _recover_query_op(db, pid: int, txn_id: int) -> OpDescriptor:
    return OpDescriptor("recover_query", pid,
                        args=(txn_id,)).bind(db.dispatch_context)


@op_handler("recover_query")
def _do_recover_query(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    (txn_id,) = d.args
    decision = (None if ctx.commits is None
                else ctx.commits.decision_of(txn_id))
    if decision is None:
        return ("unknown",)  # presumed abort at the asker
    return ("committed",) if decision else ("aborted",)


# -- recovery ------------------------------------------------------------------

def recover_database(db) -> list[PreparedEntry]:
    """Replay every owned server's WAL into a freshly built database.

    Redo-only: committed txns' writes are re-applied in decision-log
    order (lock serialization made that order correct per key);
    coordinator records redo only home-partition writes (remote
    partitions replay their own participant records).  Coordinator
    prepares without a decision become recorded aborts (presumed
    abort); participant prepares without a decision are returned as
    in-doubt entries — locks conceptually theirs stay theirs until
    :func:`resolve_in_doubt_local` or :func:`recovery_program` settles
    them.
    """
    stats = db.recovery
    in_doubt: list[PreparedEntry] = []
    replayed_any = False
    for sid in sorted(db.wal_servers()):
        wal = db.wal_of(sid)
        records = replay_wal(wal.path)
        if not records:
            continue
        replayed_any = True
        in_doubt.extend(_replay_server(db, sid, records, stats))
    if replayed_any:
        stats.recoveries += 1
    return in_doubt


def _replay_server(db, sid: int, records: list[tuple],
                   stats) -> list[PreparedEntry]:
    store = db.store(sid)
    prepared: dict[int, tuple] = {}  # txn -> (role, peer, payload)
    decided: dict[int, bool] = {}
    for record in records:
        rtype = record[0]
        if rtype == R_PREPARE:
            _t, txn_id, role, peer, payload = record
            prepared[txn_id] = (role, peer, payload)
        elif rtype == R_DECISION:
            _t, txn_id, committed = record
            decided[txn_id] = bool(committed)
            entry = prepared.get(txn_id)
            if committed and entry is not None:
                role, _peer, payload = entry
                # redo, not apply: the store may have seen any prefix
                for write in _server_writes(sid, role, payload):
                    store.redo(*write)
                stats.txns_redone += 1
    in_doubt: list[PreparedEntry] = []
    for txn_id, (role, peer, payload) in prepared.items():
        decision = decided.get(txn_id)
        if decision is not None:
            if role == ROLE_COORDINATOR:
                # keep answering recover_query across the restart
                db.commit_table.record_decision(txn_id, decision)
            continue
        if role == ROLE_COORDINATOR:
            # the commit point was never logged: presumed abort
            db.commit_table.record_decision(txn_id, False)
            stats.in_doubt_resolved += 1
        elif role == ROLE_PARTICIPANT:
            db.commit_table.stash(sid, txn_id, peer, payload)
            in_doubt.append(PreparedEntry(sid, txn_id, peer, payload))
        # ROLE_INNER without a decision: the unilateral critical
        # section never committed — nothing is in doubt
    return in_doubt


def _server_writes(sid: int, role: int, payload: tuple) -> tuple:
    """The writes a server's own record redoes.  A coordinator record
    carries the full per-partition write-set but redoes only the home
    partition's share — every other partition has (or had) its own
    participant record, including sibling partitions of the same
    process (double-apply hazard).  Participant and inner records carry
    exactly this server's writes."""
    if role in (ROLE_PARTICIPANT, ROLE_INNER):
        return payload
    for pid, writes in payload:
        if pid == sid:
            return writes
    return ()


def resolve_in_doubt_local(db, entries: list[PreparedEntry]) -> None:
    """Settle in-doubt txns against this process's own decision table
    (single-process recovery: the coordinator's log was replayed into
    the same table)."""
    for entry in entries:
        decision = db.commit_table.decision_of(entry.txn_id)
        _settle(db, entry, decision is True)


RECOVERY_RETRY_US = 500.0
"""Backoff between ``recover_query`` tries at an unreachable coordinator."""

RECOVERY_ATTEMPTS = 10
"""``recover_query`` tries before an in-doubt txn is presumed aborted."""


def recovery_program(db, entries: list[PreparedEntry]) -> Generator:
    """Engine program settling in-doubt txns via ``recover_query``
    verbs to each txn's coordinator server (the mp recovery path).

    An unreachable coordinator is retried with backoff; if it stays
    down past :data:`RECOVERY_ATTEMPTS` the txn falls back to presumed
    abort — the availability tradeoff presumed-abort 2PC always makes."""
    for entry in entries:
        committed = False
        for _attempt in range(RECOVERY_ATTEMPTS):
            op = _recover_query_op(db, entry.coordinator, entry.txn_id)
            [result] = yield Round(((entry.coordinator, op),),
                                   "recover_query")
            if result[0] == "committed":
                committed = True
                break
            if result[0] in ("aborted", "unknown"):
                break
            yield Sleep(RECOVERY_RETRY_US)
        _settle(db, entry, committed)


def _settle(db, entry: PreparedEntry, committed: bool) -> None:
    store = db.store(entry.partition)
    db.commit_table.pop_stash(entry.partition, entry.txn_id)
    if committed:
        apply_wire_writes(store, entry.writes)
    wal = db.wal_of(entry.partition)
    if wal is not None:
        wal.append((R_DECISION, entry.txn_id, committed))
        wal.append((R_END, entry.txn_id))
    store.release_all(entry.txn_id)
    db.recovery.in_doubt_resolved += 1
