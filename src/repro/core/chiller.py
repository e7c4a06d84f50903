"""Chiller's two-region transaction executor (paper Sections 3 and 5).

Protocol per transaction (Fig. 3b):

1. Plan regions (:class:`~repro.core.regions.RegionPlanner`).  No
   admissible hot record -> run the plain 2PL+2PC path.
2. **Outer phase 1**: lock+read every outer record (dependency-layered
   parallel rounds), evaluating outer CHECKs as they become ready.  Any
   failure aborts normally.
3. **Inner region**: delegate the inner ops to the inner host via one
   RPC carrying all outer bindings.  The inner host checks locks, reads,
   checks, applies, and *commits unilaterally* in one purely local
   critical section, which is the whole point: the hot records'
   contention span shrinks from >= 2 network round trips to that one
   section.  On success it fires the Fig. 6 replication protocol
   (replicas apply in channel order and acknowledge the *coordinator*,
   not the inner host, which has already moved on).
4. **Outer phase 2**: after the inner reply *and* all inner-replica
   acks, evaluate outer writes (they may consume values computed in the
   inner region, e.g. the flight example's ``cost``), replicate them,
   apply, and release.  Nothing can abort past the inner commit.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Mapping, NamedTuple

from ..analysis import OpInstance, OpKind
from ..replication import InnerReplicaAck, InnerReplicate
from ..sim import (Await, Compute, Round, Rpc, Signal, approx_payload_bytes,
                   write_set_bytes)
from ..storage import LockMode
from ..storage.wal import R_DECISION, R_END, R_PREPARE, ROLE_INNER
from ..txn import Database, HistoryRecorder
from ..txn.commit_fsm import CommitFsm, crash_point
from ..txn.common import CPU_REPLICA_APPLY_US, AbortReason, TxnRequest
from ..txn.executor import BaseExecutor, TxnState
from .lookup import HotRecordTable
from .regions import RegionPlan, RegionPlanner, inner_cpu_us

RPC_INNER = "chiller_inner"
RPC_REPLICATE = "chiller_replicate"
RPC_ACK = "chiller_ack"

_ABORT_BY_STATUS = {
    "conflict": AbortReason.INNER_CONFLICT,
    "missing": AbortReason.READ_MISS,
    "duplicate": AbortReason.DUPLICATE_KEY,
    "logical": AbortReason.LOGICAL,
}

_ACK_BYTES = approx_payload_bytes((RPC_ACK, InnerReplicaAck(0, 0)))
"""Modeled size of an inner replica's ack: two ints, whatever their value."""

_REPLICATE_ENVELOPE_BYTES = (
    approx_payload_bytes((RPC_REPLICATE, InnerReplicate(0, 0, (), 0)))
    - approx_payload_bytes(()))
"""Modeled size of an inner replication message around its write set,
which sits two levels down (payload tuple, then message)."""


class InnerRequest(NamedTuple):
    """Coordinator -> inner host: execute and commit these operations."""

    txn_id: int
    proc: str
    params: Mapping[str, Any]
    inner_names: tuple[str, ...]
    ctx: Mapping[str, Any]
    coordinator: int


class _AckState:
    """The replica servers a coordinator still waits to hear from."""

    __slots__ = ("signal", "waiting")

    def __init__(self, waiting: Iterable[int]):
        self.signal = Signal()
        self.waiting = set(waiting)

    def settle(self, servers) -> None:
        if self.waiting:
            self.waiting.difference_update(servers)
            if not self.waiting:
                self.signal.fire()


class ChillerExecutor(BaseExecutor):
    """Two-region execution over a contention-aware layout."""

    name = "chiller"

    def __init__(self, db: Database, hot_table: HotRecordTable,
                 history: HistoryRecorder | None = None):
        super().__init__(db, history)
        self.hot_table = hot_table
        self._pending_acks: dict[int, _AckState] = {}
        self._planners: dict[int, RegionPlanner] = {}
        self._plan_cache: dict = {}
        """Region splits by signature, shared by every home's planner
        (bounded by ``regions.PLAN_CACHE_CAP``)."""
        db.register_rpc(RPC_INNER, self._inner_handler)
        db.register_rpc(RPC_REPLICATE, self._replicate_handler)
        db.register_rpc(RPC_ACK, self._ack_handler)
        self._peer_is_down = getattr(db.cluster, "peer_is_down", None)
        if self._peer_is_down is not None:
            db.cluster.peer_down_hooks.append(self._forget_dead_replicas)

    def make_planner(self, home: int) -> RegionPlanner:
        """The planner of transactions coordinated by ``home`` (which
        resolves replicated tables to its own partition)."""
        planner = self._planners.get(home)
        if planner is None:
            planner = self._planners[home] = RegionPlanner(
                self.hot_table, self.db.catalog, home,
                cache=self._plan_cache)
        return planner

    # -- coordinator ---------------------------------------------------------

    def execute(self, request: TxnRequest, trace: int = 0,
                attempt: int = 0) -> Generator:
        state = self.new_state(request, trace, attempt)
        plan = self.make_planner(request.home).plan(state.instances,
                                                    request.params)
        if not plan.two_region:
            return (yield from self._execute_normal(state))
        return (yield from self._execute_two_region(state, plan))

    def _execute_normal(self, state: TxnState) -> Generator:
        """Cold transactions run exactly like the 2PL baseline."""
        fsm = CommitFsm(self, state)
        ok = yield from self.lock_read_phase(state)
        if not ok:
            yield from fsm.abort()
            return self.finish(state)
        writes = self.evaluate_writes(state)
        ok = yield from fsm.prepare(writes)
        if not ok:
            yield from fsm.abort()
            return self.finish(state)
        yield from fsm.commit()
        return self.finish(state)

    def _execute_two_region(self, state: TxnState,
                            plan: RegionPlan) -> Generator:
        state.used_two_region = True
        state.inner_host = plan.inner_host
        assert plan.inner_host is not None
        state.pending_checks = [inst for inst in plan.outer
                                if inst.spec.kind is OpKind.CHECK]
        fsm = CommitFsm(self, state)

        ok = yield from self.lock_read_phase(state, ops=plan.outer)
        if not ok:
            yield from fsm.abort()
            return self.finish(state)

        awaited = self._replicas_to_await(plan.inner_host)
        if awaited:
            self._pending_acks[state.txn_id] = _AckState(awaited)
        # the inner host copies ctx before it binds anything, and this
        # coordinator binds nothing until the reply
        inner_request = InnerRequest(
            state.txn_id, state.request.proc, state.request.params,
            plan.inner_names(), state.ctx, state.request.home)
        if plan.inner_host == state.request.home:
            # the coordinator is the inner host: run it inline on this
            # engine (still consuming this core's CPU) over the
            # instances, and the keys, its plan already has
            reply = yield from self._inner_body(
                plan.inner_host, inner_request, plan.inner,
                plan.inner_keys, plan.inner_cpu_us)
        else:
            reply = yield Rpc(plan.inner_host, (RPC_INNER, inner_request))

        status, ctx_delta, inner_reads, inner_versions = reply
        if status != "ok":
            self._pending_acks.pop(state.txn_id, None)
            state.abort_reason = _ABORT_BY_STATUS[status]
            yield from fsm.abort()
            return self.finish(state)

        state.ctx.update(ctx_delta)
        state.reads.extend(inner_reads)
        state.write_versions.extend(inner_versions)

        if awaited:
            acks = self._pending_acks[state.txn_id]
            yield Await(acks.signal)
            del self._pending_acks[state.txn_id]

        writes = self.evaluate_writes(state, ops=plan.outer)
        ok = yield from fsm.prepare(writes)
        if not ok:
            # nothing can abort past the inner commit in the fault-free
            # protocol; a dead participant can.  The inner region stays
            # committed (it was unilateral); the outer writes abort.
            yield from fsm.abort()
            return self.finish(state)
        yield from fsm.commit()
        state.touched.add(plan.inner_host)
        return self.finish(state)

    def _replicas_to_await(self, inner_host: int) -> Iterable[int]:
        """The inner host's replicas whose acks the coordinator waits
        for: all of them, bar those on a worker known to be dead (its
        ``post`` is dropped, so no ack would ever come)."""
        if self.db.replicas is None:
            return []
        servers = self.db.replicas.replica_servers(inner_host)
        if self._peer_is_down is None:
            return servers
        owner_of = self.db.cluster.owner_of
        return [s for s in servers if not self._peer_is_down(owner_of(s))]

    def _forget_dead_replicas(self, worker: int,
                              _dead_generation: int) -> None:
        """A peer worker died: its replicas will never ack, so stop
        waiting for them.  (The hook also runs when the respawned peer
        is rewired; a live peer's acks are still coming then.)"""
        if not self._peer_is_down(worker):
            return
        owner_of = self.db.cluster.owner_of
        for acks in list(self._pending_acks.values()):
            acks.settle([s for s in acks.waiting if owner_of(s) == worker])

    # -- inner host ------------------------------------------------------------

    def _inner_handler(self, server_id: int, src: int,
                       body: InnerRequest) -> Generator:
        proc = self.db.registry.get(body.proc)
        by_name = {inst.name: inst
                   for inst in proc.instantiate(body.params)}
        instances = [by_name[name] for name in body.inner_names]
        return (yield from self._inner_body(server_id, body, instances,
                                            [None] * len(instances),
                                            inner_cpu_us(instances)))

    def _inner_body(self, server_id: int, req: InnerRequest,
                    instances: list[OpInstance], keys: list,
                    cpu_us: float) -> Generator:
        """Execute the inner region (``instances``, the ops named by
        ``req.inner_names``) locally; commit unilaterally.  ``keys``
        holds each instance's key where the planner already resolved
        it, None where the region resolves it.

        The inner region runs "from beginning to end with no stall"
        (Section 3.3): one contiguous CPU block for its logic
        (``cpu_us``, :func:`~repro.core.regions.inner_cpu_us` of the
        instances), then one atomic local critical section that checks
        locks, reads, checks, and applies.  Concurrent inner regions
        on the same partition are therefore serialized by the host's
        core instead of conflicting — the paper's "conflicts are most
        likely handled sequentially in the inner region".
        """
        tr = self.db.tracer
        # the inner host's span joins the coordinator's tree via the
        # task trace context (carried by the RPC envelope on every
        # backend), read while this handler task is current
        trace = (self.db.cluster.engine(server_id).current_trace
                 if tr.enabled else 0)
        t0 = self.db.cluster.sim.now if trace else 0.0
        store = self.db.store(server_id)
        # every inner operation is local to this host by construction
        yield Compute(cpu_us)
        [result] = yield Round(
            ((server_id, lambda: self._inner_critical_section(
                store, instances, keys, req)),),
            "inner_commit")
        status, ctx_delta, reads, versions, writes = result
        if trace:
            tr.span(trace, req.txn_id, 0, server_id, "commit", t0,
                    self.db.cluster.sim.now,
                    "ok" if status == "ok" else status)
        if status == "ok":
            self._replicate_inner(server_id, req, writes)
        return (status, ctx_delta, reads, versions)

    def _inner_critical_section(self, store, instances: list[OpInstance],
                                keys: list, req: InnerRequest) -> tuple:
        """Check locks, read, check, and apply — one atomic event.

        A lock the section took would be released before any other
        transaction could see it, so it takes none: it checks each
        record's lock the way a NO_WAIT acquire would decide
        (:meth:`~repro.storage.PartitionStore.check_lock`) and aborts
        past one an outer region holds, leaving nothing to release.
        """
        ctx: dict[str, Any] = dict(req.ctx)
        params = req.params
        reads: list[tuple[tuple[str, Any], int]] = []
        locations: dict[str, tuple[str, Any]] = {}
        granted: set = set()
        read, insert, check = OpKind.READ, OpKind.INSERT, OpKind.CHECK

        for inst, key in zip(instances, keys):
            kind = inst.spec.kind
            if kind is read:
                table = inst.spec.table
                if key is None:
                    key = inst.concrete_key(params, ctx)
                if not store.check_lock(table, key, inst.lock_mode(),
                                        granted):
                    return ("conflict", {}, [], [], [])
                result = store.read(table, key)
                if result is None:
                    return ("missing", {}, [], [], [])
                fields, version = result
                ctx[inst.name] = fields
                locations[inst.name] = (table, key)
                reads.append(((table, key), version))
            elif kind is insert:
                table = inst.spec.table
                if key is None:
                    key = inst.concrete_key(params, ctx)
                locations[inst.name] = (table, key)
                if not store.check_lock(table, key, LockMode.EXCLUSIVE,
                                        granted):
                    return ("conflict", {}, [], [], [])
                if store.read(table, key) is not None:
                    return ("duplicate", {}, [], [], [])
            elif kind is check:
                if not inst.run_check(params, ctx):
                    return ("logical", {}, [], [], [])
            # UPDATE/DELETE: applied below at the commit point

        writes = []
        for inst in instances:
            kind = inst.spec.kind
            if kind is OpKind.UPDATE:
                target = inst.target_instance()
                if target not in locations:
                    raise RuntimeError(
                        f"inner update {inst.name!r} has no inner target "
                        f"read {target!r}; region planner bug")
                table, key = locations[target]
                writes.append(("update", table, key,
                               inst.run_update(params, ctx)))
            elif kind is insert:
                table, key = locations[inst.name]
                writes.append(("insert", table, key,
                               inst.run_insert_fields(params, ctx)))
            elif kind is OpKind.DELETE:
                table, key = locations[inst.target_instance()]
                writes.append(("delete", table, key, None))

        wal = self.db.wal_of(store.partition_id)
        if wal is not None:
            # the unilateral inner commit logs prepare+decision in one
            # go — there is no voting phase to survive, only the redo
            crash_point("inner:before_commit")
            wal.append((R_PREPARE, req.txn_id, ROLE_INNER,
                        req.coordinator, tuple(writes)))
            wal.append((R_DECISION, req.txn_id, True), sync=True)
        versions = store.apply(writes, redo=False)
        if wal is not None:
            wal.append((R_END, req.txn_id))
        ctx_delta = {name: ctx[name] for name in req.inner_names
                     if name in ctx}
        return ("ok", ctx_delta, reads, versions, writes)

    def _replicate_inner(self, server_id: int, req: InnerRequest,
                         writes: list[tuple]) -> None:
        """Fig. 6: fire replication messages and move on immediately,
        shipping the very writes the host applied."""
        if self.db.replicas is None:
            return
        shipped = tuple(writes)
        message = InnerReplicate(req.txn_id, server_id, shipped,
                                 req.coordinator)
        engine = self.db.cluster.engine(server_id)
        payload = (RPC_REPLICATE, message)
        # sized once per message, not per replica it is fanned out to
        nbytes = _REPLICATE_ENVELOPE_BYTES + write_set_bytes(shipped, 2)
        for rserver in self.db.replicas.replica_servers(server_id):
            engine.post(rserver, payload, nbytes)

    # -- replica and ack handlers --------------------------------------------

    def _replicate_handler(self, server_id: int, src: int,
                           body: InnerReplicate) -> Generator:
        """Apply the inner write-set on a replica, ack the coordinator."""
        yield Compute(CPU_REPLICA_APPLY_US * max(1, len(body.writes)))
        self.db.replicas.apply(server_id, body.partition, body.writes)
        self.db.cluster.engine(server_id).post(
            body.coordinator,
            (RPC_ACK, InnerReplicaAck(body.txn_id, server_id)), _ACK_BYTES)
        return None

    def _ack_handler(self, server_id: int, src: int,
                     body: InnerReplicaAck) -> Generator:
        acks = self._pending_acks.get(body.txn_id)
        if acks is not None:
            acks.settle((body.replica_server,))
        return None
        yield  # pragma: no cover - generator marker

