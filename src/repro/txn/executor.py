"""Shared coordinator machinery for all execution models.

All executors (traditional 2PL+2PC, OCC, and Chiller's two-region model)
drive transactions the same way: resolve operation instances into
*dependency layers* (everything whose primary key is computable goes into
one parallel network round; pk-dependent operations wait for the next
layer), buffer writes at the coordinator, and apply them at commit while
releasing locks.  The differences — when locks are taken, whether a
validation phase exists, whether an inner region is delegated — live in
the subclasses.

Buffering writes until commit means an aborted transaction never has to
undo anything: releasing its locks is the entire rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from ..analysis import OpInstance, OpKind
from ..sim import All, BatchedOneSided, Compute, OneSided, write_set_bytes
from ..sim.codec import DispatchContext, OpDescriptor, op_handler
from ..storage import LockMode
from .commit_fsm import apply_wire_writes
from .common import (CPU_APPLY_US, CPU_BATCHED_OP_US, CPU_CHECK_US,
                     CPU_DISPATCH_US, CPU_LOCAL_OP_US, CPU_OP_US, AbortReason,
                     CommitLog, Outcome, TxnRequest, next_txn_id)
from .database import Database
from .history import HistoryRecorder


@dataclass
class TxnState:
    """Mutable per-transaction execution state at the coordinator."""

    txn_id: int
    request: TxnRequest
    instances: list[OpInstance]
    start: float
    ctx: dict[str, Any] = field(default_factory=dict)
    locations: dict[str, tuple[str, Any, int]] = field(default_factory=dict)
    touched: set[int] = field(default_factory=set)
    reads: list[tuple[tuple[str, Any], int]] = field(default_factory=list)
    write_versions: list[tuple[tuple[str, Any], int]] = field(
        default_factory=list)
    pending_checks: list[OpInstance] = field(default_factory=list)
    abort_reason: AbortReason | None = None
    inner_host: int | None = None
    used_two_region: bool = False
    epoch: int = 0
    """Placement epoch captured at start; read misses on records that
    migrated past this epoch abort as MIGRATED (retryable) instead of
    READ_MISS (an application abort)."""
    trace: int = 0
    """Observability trace id (0 = untraced); rides the runtime's task
    context and the mp wire frames so every phase span this transaction
    emits — on any server — stitches into one tree."""
    attempt: int = 0
    """Retry ordinal of the driving request (0 = first attempt)."""

    @property
    def params(self) -> Any:
        return self.request.params


class BaseExecutor:
    """Common machinery; subclasses implement :meth:`execute`."""

    name = "base"

    record_footprints = False
    """When on, committed Outcomes carry their actual read/write sets
    (``Outcome.read_set``/``write_set``) so access telemetry
    (:mod:`repro.placement`) can observe them.  Off by default: the
    static path ships no footprints."""

    def __init__(self, db: Database,
                 history: HistoryRecorder | None = None):
        self.db = db
        self.history = history
        self._partition_sets: dict[frozenset, frozenset] = {}
        """One shared object per distinct ``Outcome.partitions`` value
        (pickle's memo keeps them shared across the mp pipe)."""

    def execute(self, request: TxnRequest) -> Generator:
        """Coroutine executing one transaction; returns an Outcome."""
        raise NotImplementedError

    # -- state setup ------------------------------------------------------

    def new_state(self, request: TxnRequest, trace: int = 0,
                  attempt: int = 0) -> TxnState:
        proc = self.db.registry.get(request.proc)
        instances = proc.instantiate(request.params)
        state = TxnState(txn_id=next_txn_id(), request=request,
                         instances=instances,
                         start=self.db.cluster.sim.now,
                         epoch=self.db.placement_epoch(),
                         trace=trace, attempt=attempt)
        state.pending_checks = [inst for inst in instances
                                if inst.spec.kind is OpKind.CHECK]
        if trace:
            # bind the context to the driving task so RPCs and (on mp)
            # wire frames issued on its behalf carry the trace id
            self.db.cluster.engine(request.home).set_trace(trace)
        return state

    # -- parallel network rounds -------------------------------------------

    @property
    def doorbell_batching(self) -> bool:
        return self.db.cluster.network.doorbell_batching

    def network_round(self, items: list[tuple[int, Callable[[], Any]]],
                      kind: str = "one_sided",
                      sizes: list[int] | None = None) -> Generator:
        """Issue ``(partition, op)`` pairs as one parallel network round.

        With doorbell batching enabled, verbs sharing a destination are
        emitted as one :class:`~repro.sim.BatchedOneSided` group each
        (one fused round trip on the wire); otherwise the round is the
        historical flat ``All`` of individual verbs.  Returns the ops'
        results in ``items`` order either way.
        """
        if not self.doorbell_batching:
            results = yield All([
                OneSided(pid, op, kind=kind,
                         nbytes=sizes[i] if sizes else None)
                for i, (pid, op) in enumerate(items)])
            return results
        groups: dict[int, list[int]] = {}
        for i, (pid, _) in enumerate(items):
            groups.setdefault(pid, []).append(i)
        nested = yield All([
            BatchedOneSided(pid, tuple(items[i][1] for i in idxs),
                            kind=kind,
                            nbytes=([sizes[i] for i in idxs]
                                    if sizes else None))
            for pid, idxs in groups.items()])
        results: list[Any] = [None] * len(items)
        for idxs, values in zip(groups.values(), nested):
            for i, value in zip(idxs, values):
                results[i] = value
        return results

    def round_cpu(self, partitions: Iterable[int], home: int,
                  local_cost: float | None = None) -> float:
        """Coordinator CPU to post one round of one-sided verbs.

        Unbatched, every remote verb pays full posting+completion cost;
        in a doorbell-batched chain only the destination's first verb
        does, the rest just append a WQE (``CPU_BATCHED_OP_US``).  Local
        verbs never batch and always pay ``local_cost`` (default: the
        plain memory-access rate; OCC's read-validation round
        historically charges the remote rate even at home and passes it
        explicitly).
        """
        if local_cost is None:
            local_cost = CPU_LOCAL_OP_US
        if not self.doorbell_batching:
            return sum(local_cost if pid == home else CPU_OP_US
                       for pid in partitions)
        cost = 0.0
        seen: set[int] = set()
        for pid in partitions:
            if pid == home:
                cost += local_cost
            elif pid in seen:
                cost += CPU_BATCHED_OP_US
            else:
                seen.add(pid)
                cost += CPU_OP_US
        return cost

    # -- phase spans -------------------------------------------------------

    def emit_span(self, state: TxnState, phase: str, t0: float,
                  ok: bool = True) -> None:
        """Record one coordinator-side phase span for a traced txn.

        Pure bookkeeping — no effects, no RNG — so emission never
        perturbs the sim event stream.  Callers guard with
        :meth:`span_start` returning a non-None t0.
        """
        self.db.tracer.span(
            state.trace, state.txn_id, state.attempt, state.request.home,
            phase, t0, self.db.cluster.sim.now,
            "ok" if ok else (state.abort_reason.name.lower()
                             if state.abort_reason else "abort"))

    def span_start(self, state: TxnState) -> float | None:
        """Phase start timestamp, or None when this txn is untraced."""
        if self.db.tracer.enabled and state.trace:
            return self.db.cluster.sim.now
        return None

    # -- layered lock+read phase (wrapped for tracing) ---------------------

    def lock_read_phase(self, state: TxnState,
                        ops: Iterable[OpInstance] | None = None,
                        locking: bool = True) -> Generator:
        """Execute READ (and INSERT-lock) ops in dependency layers.

        With ``locking=False`` this is an OCC read phase: reads take no
        locks and inserts defer entirely to validation.  Returns True on
        success; on failure ``state.abort_reason`` is set.
        """
        t0 = self.span_start(state)
        if t0 is None:
            return (yield from self._lock_read_phase(state, ops, locking))
        ok = yield from self._lock_read_phase(state, ops, locking)
        self.emit_span(state, "lock" if locking else "read", t0, ok)
        return ok

    def _lock_read_phase(self, state: TxnState,
                         ops: Iterable[OpInstance] | None,
                         locking: bool) -> Generator:
        if ops is None:
            ops = state.instances
        pending = [inst for inst in ops
                   if inst.spec.kind in (OpKind.READ, OpKind.INSERT)]
        if not (yield from self.run_ready_checks(state)):
            return False
        while pending:
            batch = [inst for inst in pending if self._resolvable(state,
                                                                  inst)]
            if not batch:
                raise RuntimeError(
                    f"txn {state.txn_id}: ops {[i.name for i in pending]} "
                    f"can never resolve their keys (dependency bug)")
            pending = [inst for inst in pending if inst not in batch]
            ok = yield from self._run_layer(state, batch, locking)
            if not ok:
                return False
            if not (yield from self.run_ready_checks(state)):
                return False
        return True

    def _resolvable(self, state: TxnState, inst: OpInstance) -> bool:
        return all(src in state.ctx for src in inst.pk_source_instances())

    def _run_layer(self, state: TxnState, batch: list[OpInstance],
                   locking: bool) -> Generator:
        home = state.request.home
        items: list[tuple[int, Callable[[], Any]]] = []
        metas: list[tuple[OpInstance, str, Any, int]] = []
        for inst in batch:
            table, key = self._resolve_record(state, inst)
            pid = self.db.partition_of(table, key,
                                       reader=state.request.home)
            state.locations[inst.name] = (table, key, pid)
            if inst.spec.kind is OpKind.READ:
                state.touched.add(pid)
                op = (_lock_read_op(self.db, pid, table, key,
                                    inst.lock_mode(), state.txn_id)
                      if locking else
                      _plain_read_op(self.db, pid, table, key))
                items.append((pid, op))
                metas.append((inst, "read", key, pid))
            else:  # INSERT: reserve the bucket now (2PL); skip under OCC
                if locking:
                    state.touched.add(pid)
                    items.append((pid, _lock_insert_op(
                        self.db, pid, table, key, state.txn_id)))
                    metas.append((inst, "insert", key, pid))
        if not items:
            return True
        yield Compute(CPU_DISPATCH_US
                      + self.round_cpu((pid for pid, _ in items), home))
        results = yield from self.network_round(items, kind="lock_read")
        for (inst, action, key, pid), result in zip(metas, results):
            status = result[0]
            if status == "conflict":
                state.abort_reason = AbortReason.LOCK_CONFLICT
                return False
            if status == "missing":
                table = state.locations[inst.name][0]
                # a record that migrated after this txn resolved its
                # placement is not gone — retrying re-resolves it at
                # its new home (always READ_MISS under static schemes)
                state.abort_reason = (
                    AbortReason.MIGRATED
                    if self.db.moved_since(table, key, state.epoch)
                    else AbortReason.READ_MISS)
                return False
            if status == "duplicate":
                state.abort_reason = AbortReason.DUPLICATE_KEY
                return False
            if status == "peer_down":
                # the runtime short-circuited a verb to a dead worker;
                # retryable — the record's owner is being respawned
                state.abort_reason = AbortReason.PEER_DOWN
                return False
            if action == "read":
                _, fields, version = result
                table = state.locations[inst.name][0]
                state.ctx[inst.name] = fields
                state.reads.append(((table, key), version))
        return True

    def _resolve_record(self, state: TxnState,
                        inst: OpInstance) -> tuple[str, Any]:
        spec = inst.spec
        if spec.kind in (OpKind.UPDATE, OpKind.DELETE):
            target = inst.target_instance()
            table, key, _pid = state.locations[target]
            return table, key
        table = spec.table
        assert table is not None
        return table, inst.concrete_key(state.params, state.ctx)

    # -- checks ------------------------------------------------------------

    def run_ready_checks(self, state: TxnState) -> Generator:
        """Evaluate CHECKs whose deps are bound; False on logical abort."""
        still_pending = []
        for inst in state.pending_checks:
            if all(dep in state.ctx for dep in inst.dep_instance_names()):
                yield Compute(CPU_CHECK_US)
                if not inst.run_check(state.params, state.ctx):
                    state.abort_reason = AbortReason.LOGICAL
                    return False
            else:
                still_pending.append(inst)
        state.pending_checks = still_pending
        return True

    # -- write evaluation and commit -----------------------------------------

    def evaluate_writes(self, state: TxnState,
                        ops: Iterable[OpInstance] | None = None,
                        ) -> dict[int, list[tuple]]:
        """Evaluate write ops against the bound ctx; group by partition.

        Each write is the ``(kind, table, key, values)`` tuple that the
        commit and prepare verbs, the WAL and the replicas all take as
        it is."""
        if ops is None:
            ops = state.instances
        by_partition: dict[int, list[tuple]] = {}
        for inst in ops:
            kind = inst.spec.kind
            if kind is OpKind.UPDATE:
                target = inst.target_instance()
                table, key, pid = state.locations[target]
                write = ("update", table, key,
                         inst.run_update(state.params, state.ctx))
            elif kind is OpKind.INSERT:
                table, key, pid = self._insert_location(state, inst)
                write = ("insert", table, key,
                         inst.run_insert_fields(state.params, state.ctx))
            elif kind is OpKind.DELETE:
                target = inst.target_instance()
                table, key, pid = state.locations[target]
                write = ("delete", table, key, None)
            else:
                continue
            by_partition.setdefault(pid, []).append(write)
        return by_partition

    def _insert_location(self, state: TxnState,
                         inst: OpInstance) -> tuple[str, Any, int]:
        location = state.locations.get(inst.name)
        if location is not None:
            return location
        table = inst.spec.table
        assert table is not None
        key = inst.concrete_key(state.params, state.ctx)
        pid = self.db.partition_of(table, key, reader=state.request.home)
        state.locations[inst.name] = (table, key, pid)
        return table, key, pid

    def replicate(self, state: TxnState,
                  writes: dict[int, list[tuple]]) -> Generator:
        """Ship write-sets to every replica of every written partition."""
        if self.db.replicas is None or not writes:
            return
        replicas = self.db.replicas
        items: list[tuple[int, Callable[[], Any]]] = []
        sizes: list[int] = []
        for pid, partition_writes in writes.items():
            shipped = tuple(partition_writes)
            nbytes = write_set_bytes(shipped)
            for rserver in replicas.replica_servers(pid):
                items.append((rserver,
                              _replica_apply_op(self.db, rserver, pid,
                                                shipped)))
                sizes.append(nbytes)
        if items:
            yield Compute(CPU_DISPATCH_US)
            yield from self.network_round(items, kind="replicate",
                                          sizes=sizes)

    def commit_phase(self, state: TxnState,
                     writes: dict[int, list[tuple]],
                     partitions: Iterable[int] | None = None) -> Generator:
        """Apply buffered writes and release all locks, one round."""
        targets = set(partitions if partitions is not None
                      else state.touched)
        targets |= set(writes)
        if not targets:
            return
        total_writes = sum(len(ws) for ws in writes.values())
        yield Compute(CPU_DISPATCH_US + CPU_APPLY_US * total_writes)
        items = [(pid, _commit_op(self.db, pid,
                                  writes.get(pid, []), state.txn_id))
                 for pid in sorted(targets)]
        results = yield from self.network_round(items, kind="commit")
        for versions in results:
            state.write_versions.extend(versions)

    def commit_op(self, pid: int, writes: list[tuple],
                  txn_id: int) -> OpDescriptor:
        """One partition's combined apply+release verb (for the commit
        FSM's decision round)."""
        return _commit_op(self.db, pid, writes, txn_id)

    def release_op(self, pid: int, txn_id: int) -> OpDescriptor:
        """One partition's bare release verb."""
        return _release_op(self.db, pid, txn_id)

    def abort_release(self, state: TxnState) -> Generator:
        """Release every lock the transaction holds (its full rollback)."""
        if not state.touched:
            return
        yield Compute(CPU_DISPATCH_US)
        yield from self.network_round(
            [(pid, _release_op(self.db, pid, state.txn_id))
             for pid in sorted(state.touched)],
            kind="release")

    # -- outcome -----------------------------------------------------------

    def finish(self, state: TxnState) -> Outcome:
        committed = state.abort_reason is None
        if committed and self.history is not None:
            self.history.record(CommitLog(state.txn_id,
                                          reads=state.reads,
                                          writes=state.write_versions))
        read_set: tuple = ()
        write_set: tuple = ()
        if committed and self.record_footprints:
            # replicated-table records resolve to the reader (always
            # local, never movable): no placement signal, keep them out
            replicated = self.db.catalog.replicated_tables
            write_set = tuple({rid: None
                               for rid, _v in state.write_versions
                               if rid[0] not in replicated})
            write_rids = set(write_set)
            read_set = tuple({rid: None for rid, _v in state.reads
                              if rid not in write_rids
                              and rid[0] not in replicated})
        touched = frozenset(state.touched)
        return Outcome(txn_id=state.txn_id, proc=state.request.proc,
                       committed=committed, reason=state.abort_reason,
                       start=state.start, end=self.db.cluster.sim.now,
                       partitions=self._partition_sets.setdefault(touched,
                                                                  touched),
                       inner_host=state.inner_host,
                       used_two_region=state.used_two_region,
                       read_set=read_set, write_set=write_set)


# -- one-sided verbs as descriptors ------------------------------------------
#
# Remote record operations are emitted as picklable
# :class:`~repro.sim.codec.OpDescriptor` data — never closures — so
# every backend (including the multiprocess one) can ship them across a
# real serialization boundary.  The builders below bind each descriptor
# to this database's dispatch context, which makes it a plain callable
# for the in-process backends; the ``@op_handler`` functions are the
# server-side dispatch table executing the verb against the target
# partition's (local copy of the) store.

def _lock_read_op(db: Database, pid: int, table: str, key: Any,
                  mode: LockMode, txn_id: int) -> OpDescriptor:
    """The one builder of ``lock_read`` verbs.  The mode travels as a
    bool (exclusive or not): the wire carries builtin values only."""
    return OpDescriptor("lock_read", pid, table, key,
                        (mode is LockMode.EXCLUSIVE,
                         txn_id)).bind(db.dispatch_context)


@op_handler("lock_read")
def _do_lock_read(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    store = ctx.store_of(d.partition)
    exclusive, txn_id = d.args
    if not store.try_lock(d.table, d.key, LockMode.EXCLUSIVE if exclusive
                          else LockMode.SHARED, txn_id):
        return ("conflict",)
    result = store.read(d.table, d.key)
    if result is None:
        return ("missing",)
    fields, version = result
    return ("ok", fields, version)


def _plain_read_op(db: Database, pid: int, table: str,
                   key: Any) -> OpDescriptor:
    return OpDescriptor("plain_read", pid, table,
                        key).bind(db.dispatch_context)


@op_handler("plain_read")
def _do_plain_read(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    result = ctx.store_of(d.partition).read(d.table, d.key)
    if result is None:
        return ("missing",)
    fields, version = result
    return ("ok", fields, version)


def _lock_insert_op(db: Database, pid: int, table: str, key: Any,
                    txn_id: int) -> OpDescriptor:
    return OpDescriptor("lock_insert", pid, table, key,
                        (txn_id,)).bind(db.dispatch_context)


@op_handler("lock_insert")
def _do_lock_insert(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    store = ctx.store_of(d.partition)
    (txn_id,) = d.args
    if not store.try_lock(d.table, d.key, LockMode.EXCLUSIVE, txn_id):
        return ("conflict",)
    if store.read(d.table, d.key) is not None:
        return ("duplicate",)
    return ("ok",)


def _commit_op(db: Database, pid: int, writes: list[tuple],
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


def _release_op(db: Database, pid: int, txn_id: int) -> OpDescriptor:
    return OpDescriptor("release", pid,
                        args=(txn_id,)).bind(db.dispatch_context)


@op_handler("release")
def _do_release(ctx: DispatchContext, d: OpDescriptor) -> int:
    (txn_id,) = d.args
    return ctx.store_of(d.partition).release_all(txn_id)


def _replica_apply_op(db: Database, rserver: int, pid: int,
                      writes: tuple[tuple, ...]) -> OpDescriptor:
    return OpDescriptor("replica_apply", rserver,
                        args=(pid, writes)).bind(db.dispatch_context)


@op_handler("replica_apply")
def _do_replica_apply(ctx: DispatchContext, d: OpDescriptor) -> None:
    if ctx.replicas is None:
        raise RuntimeError("replica_apply verb arrived but this process "
                           "has no ReplicaManager")
    pid, writes = d.args
    return ctx.replicas.apply(d.partition, pid, writes)
