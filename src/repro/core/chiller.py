"""Chiller's two-region transaction executor (paper Sections 3 and 5).

Protocol per transaction (Fig. 3b):

1. Plan regions (:class:`~repro.core.regions.RegionPlanner`).  No
   admissible hot record -> run the plain 2PL+2PC path.
2. **Outer phase 1**: lock+read every outer record (dependency-layered
   parallel rounds), evaluating outer CHECKs as they become ready.  Any
   failure aborts normally.
3. **Inner region**: delegate the inner ops to the inner host via one
   RPC carrying all outer bindings.  The inner host locks, reads,
   checks, applies, and *commits unilaterally* — its locks are released
   after a purely local critical section, which is the whole point: the
   hot records' contention span shrinks from >= 2 network round trips to
   microseconds.  On success it fires the Fig. 6 replication protocol
   (replicas apply in channel order and acknowledge the *coordinator*,
   not the inner host, which has already moved on).
4. **Outer phase 2**: after the inner reply *and* all inner-replica
   acks, evaluate outer writes (they may consume values computed in the
   inner region, e.g. the flight example's ``cost``), replicate them,
   apply, and release.  Nothing can abort past the inner commit.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping, NamedTuple

from ..analysis import OpInstance, OpKind
from ..replication import InnerReplicaAck, InnerReplicate
from ..sim import Await, Compute, OneSided, Rpc, Signal, approx_payload_bytes
from ..storage import LockMode
from ..storage.wal import R_DECISION, R_END, R_PREPARE, ROLE_INNER
from ..txn import Database, HistoryRecorder
from ..txn.commit_fsm import CommitFsm, apply_wire_writes, crash_point
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

    def __init__(self, waiting: list[int]):
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
                 history: HistoryRecorder | None = None,
                 bypass_inner_locks: bool = False):
        super().__init__(db, history)
        self.hot_table = hot_table
        self.bypass_inner_locks = bypass_inner_locks
        """Section 3.3's optional optimization: skip lock acquisition
        inside the inner region, relying on the host core's
        serialization — legal only when no transaction ever touches
        inner records through an outer region (guaranteeable for
        TPC-C's warehouse/district rows, not in general; the paper's
        implementation leaves it off, as we do by default).  Conflicting
        locks held by outer regions still abort the inner region."""
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
                self.hot_table,
                lambda table, key: self.db.partition_of(table, key,
                                                        reader=home),
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
        inner_request = InnerRequest(
            state.txn_id, state.request.proc, state.request.params,
            plan.inner_names(), dict(state.ctx), state.request.home)
        if plan.inner_host == state.request.home:
            # the coordinator is the inner host: run it inline on this
            # engine (still consuming this core's CPU) over the
            # instances it already has
            reply = yield from self._inner_body(
                plan.inner_host, inner_request, plan.inner,
                plan.inner_cpu_us)
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

    def _replicas_to_await(self, inner_host: int) -> list[int]:
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
                                            inner_cpu_us(instances)))

    def _inner_body(self, server_id: int, req: InnerRequest,
                    instances: list[OpInstance],
                    cpu_us: float) -> Generator:
        """Execute the inner region (``instances``, the ops named by
        ``req.inner_names``) locally; commit unilaterally.

        The inner region runs "from beginning to end with no stall"
        (Section 3.3): one contiguous CPU block for its logic
        (``cpu_us``, :func:`~repro.core.regions.inner_cpu_us` of the
        instances), then one atomic local critical section that locks,
        reads, checks, applies, and releases.  Concurrent inner regions
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
        result = yield OneSided(
            server_id,
            lambda: self._inner_critical_section(store, instances, req),
            kind="inner_commit")
        status, ctx_delta, reads, versions, writes = result
        if trace:
            tr.span(trace, req.txn_id, 0, server_id, "commit", t0,
                    self.db.cluster.sim.now,
                    "ok" if status == "ok" else status)
        if status == "ok":
            self._replicate_inner(server_id, req, writes)
        return (status, ctx_delta, reads, versions)

    def _inner_critical_section(self, store, instances: list[OpInstance],
                                req: InnerRequest) -> tuple:
        """Lock, read, check, apply, and release — one atomic event.

        With ``bypass_inner_locks`` the section does not *acquire*
        locks (H-store style); it still refuses to proceed past a lock
        someone else holds (an outer region owns the record).
        """
        ctx: dict[str, Any] = dict(req.ctx)
        owner = ("inner", req.txn_id)
        bypass = self.bypass_inner_locks
        reads: list[tuple[tuple[str, Any], int]] = []
        locations: dict[str, tuple[str, Any]] = {}

        def fail(status: str) -> tuple:
            store.release_all(owner)
            return (status, {}, [], [], [])

        def acquire(table: str, key: Any, mode) -> bool:
            if bypass:
                return not store.locked_by_other(table, key, owner)
            return store.try_lock(table, key, mode, owner)

        for inst in instances:
            kind = inst.spec.kind
            if kind is OpKind.READ:
                table = inst.spec.table
                key = inst.concrete_key(req.params, ctx)
                if not acquire(table, key, inst.lock_mode()):
                    return fail("conflict")
                result = store.read(table, key)
                if result is None:
                    return fail("missing")
                fields, version = result
                ctx[inst.name] = fields
                locations[inst.name] = (table, key)
                reads.append(((table, key), version))
            elif kind is OpKind.INSERT:
                table = inst.spec.table
                key = inst.concrete_key(req.params, ctx)
                locations[inst.name] = (table, key)
                if not acquire(table, key, LockMode.EXCLUSIVE):
                    return fail("conflict")
                if store.read(table, key) is not None:
                    return fail("duplicate")
            elif kind is OpKind.CHECK:
                if not inst.run_check(req.params, ctx):
                    return fail("logical")
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
                               inst.run_update(req.params, ctx)))
            elif kind is OpKind.INSERT:
                table, key = locations[inst.name]
                writes.append(("insert", table, key,
                               inst.run_insert_fields(req.params, ctx)))
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
        versions = _inner_commit_op(store, writes, owner)()
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
        message = InnerReplicate(req.txn_id, server_id, tuple(writes),
                                 req.coordinator)
        engine = self.db.cluster.engine(server_id)
        payload = (RPC_REPLICATE, message)
        # one walk per message, not per replica it is fanned out to
        nbytes = approx_payload_bytes(payload)
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
            (RPC_ACK, InnerReplicaAck(body.txn_id, server_id)))
        return None

    def _ack_handler(self, server_id: int, src: int,
                     body: InnerReplicaAck) -> Generator:
        acks = self._pending_acks.get(body.txn_id)
        if acks is not None:
            acks.settle((body.replica_server,))
        return None
        yield  # pragma: no cover - generator marker


def _inner_commit_op(store, writes: list[tuple], owner):
    """Apply the inner region's writes and release its locks atomically."""
    def op() -> list:
        versions = apply_wire_writes(store, writes)
        store.release_all(owner)
        return versions
    return op
