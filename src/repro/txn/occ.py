"""Optimistic concurrency control (MaaT-flavoured) executor.

The paper's OCC baseline is MaaT [19].  We implement the behaviour the
evaluation depends on — reads proceed without locks, and conflicts only
surface at a commit-time validation, so conflicting transactions waste
their entire execution before aborting — using Silo-style backward
validation:

1. **Read phase**: dependency-layered reads with *no* locks, recording
   the version of every record read; writes buffered at the coordinator.
2. **Validation phase**: NO_WAIT-lock the write set (insert keys
   included), then verify that (a) every written record still carries
   the version we read and (b) every read-only record is both unchanged
   and not locked by a concurrent validator.  Any failure aborts.
3. **Install phase**: replicate, apply buffered writes, release.

MaaT's dynamic timestamp ranges shave some aborts off this scheme but
keep its wasted-work failure mode.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..sim import Compute, Round
from ..sim.codec import DispatchContext, OpDescriptor, op_handler
from ..storage import LockMode
from .commit_fsm import CommitFsm
from .common import (CPU_DISPATCH_US, CPU_LOCAL_OP_US, CPU_OP_US, AbortReason,
                     TxnRequest)
from .database import Database
from .executor import BaseExecutor, TxnState


class OccExecutor(BaseExecutor):
    """Optimistic executor with commit-time validation."""

    name = "occ"

    def execute(self, request: TxnRequest, trace: int = 0,
                attempt: int = 0) -> Generator:
        state = self.new_state(request, trace, attempt)
        fsm = CommitFsm(self, state)
        ok = yield from self.lock_read_phase(state, locking=False)
        if not ok:
            # read phase holds no locks: aborting costs nothing extra
            fsm.mark_aborted()
            return self.finish(state)
        writes = self.evaluate_writes(state)
        t0 = self.span_start(state)
        ok = yield from self._validate(state, writes)
        if t0 is not None:
            self.emit_span(state, "validate", t0, ok)
        if not ok:
            # validation precedes the prepare: nothing was logged or
            # shipped, so this abort needs no decision record either
            yield from fsm.abort()
            return self.finish(state)
        ok = yield from fsm.prepare(writes)
        if not ok:
            yield from fsm.abort()
            return self.finish(state)
        yield from fsm.commit()
        return self.finish(state)

    # -- validation -------------------------------------------------------

    def _validation_cpu(self, state: TxnState, partitions) -> float:
        home = state.request.home
        cost = 0.0
        for pid in partitions:
            cost += CPU_LOCAL_OP_US if pid == home else CPU_OP_US
        return cost

    def _validate(self, state: TxnState, writes) -> Generator:
        """Lock the write set, then check the read set is still current."""
        read_versions: dict[tuple[str, Any], int] = {}
        for rid, version in state.reads:
            read_versions[rid] = version

        lock_items: list[tuple[int, Callable[[], str]]] = []
        written: set[tuple[str, Any]] = set()
        for pid, partition_writes in writes.items():
            state.touched.add(pid)
            for kind, table, key, _values in partition_writes:
                rid = (table, key)
                written.add(rid)
                expected = read_versions.get(rid)
                lock_items.append((pid, _validate_write_op(
                    self.db, pid, table, key, state.txn_id, expected,
                    is_insert=kind == "insert")))
        if lock_items:
            yield Compute(CPU_DISPATCH_US
                          + self._validation_cpu(state, writes.keys()))
            results = yield Round(lock_items, "validate_write")
            for result in results:
                if result != "ok":
                    state.abort_reason = AbortReason.VALIDATION
                    return False

        check_items: list[tuple[int, Callable[[], str]]] = []
        for rid, version in read_versions.items():
            if rid in written:
                continue  # verified under its own lock above
            table, key = rid
            pid = self.db.partition_of(table, key,
                                       reader=state.request.home)
            check_items.append((pid, _validate_read_op(
                self.db, pid, table, key, state.txn_id, version)))
        if check_items:
            yield Compute(CPU_DISPATCH_US
                          + self.round_cpu((pid for pid, _ in check_items),
                                           home=state.request.home,
                                           local_cost=CPU_OP_US))
            results = yield Round(check_items, "validate_read")
            for result in results:
                if result != "ok":
                    state.abort_reason = AbortReason.VALIDATION
                    return False
        return True


def _validate_write_op(db: Database, pid: int, table: str, key: Any,
                       txn_id: int, expected_version: int | None,
                       is_insert: bool) -> OpDescriptor:
    return OpDescriptor("validate_write", pid, table, key,
                        (txn_id, expected_version,
                         is_insert)).bind(db.dispatch_context)


@op_handler("validate_write")
def _do_validate_write(ctx: DispatchContext, d: OpDescriptor) -> str:
    store = ctx.store_of(d.partition)
    txn_id, expected_version, is_insert = d.args
    if not store.try_lock(d.table, d.key, LockMode.EXCLUSIVE, txn_id):
        return "conflict"
    current = store.version_of(d.table, d.key)
    if is_insert:
        return "ok" if current is None else "duplicate"
    if current != expected_version:
        return "stale"
    return "ok"


def _validate_read_op(db: Database, pid: int, table: str, key: Any,
                      txn_id: int, expected_version: int) -> OpDescriptor:
    return OpDescriptor("validate_read", pid, table, key,
                        (txn_id, expected_version)).bind(db.dispatch_context)


@op_handler("validate_read")
def _do_validate_read(ctx: DispatchContext, d: OpDescriptor) -> str:
    store = ctx.store_of(d.partition)
    txn_id, expected_version = d.args
    if store.version_of(d.table, d.key) != expected_version:
        return "stale"
    if store.locked_by_other(d.table, d.key, txn_id):
        return "locked"  # a concurrent validator owns it
    return "ok"
