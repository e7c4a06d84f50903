"""Live record migration: moves as ordinary locking transactions.

A move never stops the world.  It runs as a small NO_WAIT transaction
on the controller's engine, built from the same op-descriptor verbs
the transaction layer ships (so on the aio/mp backends the record's
value crosses a real serialization boundary through the wire codec):

1. **Lock at source** — an exclusive ``lock_read`` verb.  A conflict
   means a live transaction owns the record; the move is skipped this
   epoch (migration never blocks the workload).
2. **Install at destination** — a ``migrate_install`` verb ships the
   value and its version (an optimistic reader validates versions, so
   the record keeps counting from where it stood); the destination's
   replicas receive the copy through the ordinary ``replica_apply``
   path, one ``replicate`` round issued beside the install.
3. **Flip routing** — the epoch-versioned catalog entry is updated
   locally and broadcast to every other server as a ``placement_flip``
   RPC (on the multiprocess backend each worker applies it to its own
   catalog copy).  From this instant new transactions resolve the new
   home; old-epoch in-flight transactions that race the move either
   hit the migration's lock (LOCK_CONFLICT, retried) or miss the
   deleted source copy (typed MIGRATED abort, retried) — both retries
   re-resolve against the new epoch.
4. **Delete at source** — a ``migrate_remove`` verb removes the old
   copy and releases the migration's lock; the source's replicas drop
   their copies through ``replica_apply`` deletes.

Because the exclusive lock is held from step 1 through step 4, no
committed write can land on the source copy after its value was
shipped — the "never lose a committed write" property the conformance
suite asserts.  A move whose lock or any install verb meets a dead
worker (a ``PEER_DOWN`` reply) stops before the flip: the source copy
stays the record's home, unlocked.
"""

from __future__ import annotations

from typing import Generator

from ..sim import All, Compute, Round, Rpc, Sleep
from ..sim.codec import PEER_DOWN, DispatchContext, OpDescriptor, op_handler
from ..storage import LockMode
from ..txn.common import next_txn_id
from ..txn.executor import _lock_read_op
from .controller import (CONTROLLER_HOME, FLIP_CPU_US, PLAN_CPU_US,
                         MigrationPlan, PlacementController, PlacementSpec,
                         PlacementStats)
from .telemetry import AccessTelemetry, TelemetryWindow

RPC_FLIP = "placement_flip"

LEASE_TTL_US = 5_000.0
"""Controller-lease time-to-live on the mp backend.  Every worker runs
a candidate loop (:func:`lease_controller_loop`); whoever holds the
lease (granted by the ``lease_acquire`` verb against
``CONTROLLER_HOME``'s server) plans and migrates that epoch.  A holder
that stops renewing — its worker process died — loses the lease once
the TTL lapses and a surviving candidate takes over (a *controller
failover*).  Read at each use, so a value patched in the parent reaches
forked workers."""


# -- server-side verbs --------------------------------------------------------

@op_handler("migrate_install")
def _do_migrate_install(ctx: DispatchContext, d: OpDescriptor) -> str:
    """Install a shipped record at its new home partition, at the
    version it had at the old one."""
    fields, version = d.args
    ctx.store_of(d.partition).install(d.table, d.key, fields, version)
    return "ok"


@op_handler("migrate_remove")
def _do_migrate_remove(ctx: DispatchContext, d: OpDescriptor) -> str:
    """Drop the source copy and release the migration's lock."""
    store = ctx.store_of(d.partition)
    (txn_id,) = d.args
    store.delete(d.table, d.key)
    store.release_all(txn_id)
    return "ok"


# -- routing flips ------------------------------------------------------------

def ensure_adaptive_scheme(db) -> None:
    """Give ``db``'s catalog an epoch-versioned scheme if it lacks one.

    Wraps any static scheme in a live
    :class:`~repro.core.lookup.EpochLookupScheme` overlay (an empty hot
    table over the existing layout), so adaptive placement works over
    hash, modulo, or trained lookup layouts alike.
    """
    if hasattr(db.catalog.scheme, "apply_move"):
        return
    from ..core.lookup import HotRecordTable
    db.catalog.scheme = HotRecordTable.empty().live_scheme(
        db.catalog.scheme)


def install_flip_handler(db, spec: PlacementSpec,
                         stats: PlacementStats) -> None:
    """Register the ``placement_flip`` RPC on this process's database.

    Every process of an adaptive run installs it (all servers must
    accept flips, only the controller's engine emits them); repeated
    installation on one database is a no-op.
    """
    if getattr(db, "_placement_flip_installed", False):
        return
    ensure_adaptive_scheme(db)

    def factory(server_id: int, src: int, body) -> Generator:
        return _apply_flip(db, spec, stats, body)

    db.register_rpc(RPC_FLIP, factory)
    db._placement_flip_installed = True


def _apply_flip(db, spec: PlacementSpec, stats: PlacementStats,
                body) -> Generator:
    table, key, dst, epoch = body
    yield Compute(FLIP_CPU_US)
    db.catalog.scheme.apply_move(table, key, dst, epoch)
    stats.flips_applied += 1
    return "ok"


# -- the migration transaction ------------------------------------------------

class MigrationExecutor:
    """Applies planned moves from one engine, one locking txn each."""

    def __init__(self, db, home: int, spec: PlacementSpec,
                 stats: PlacementStats):
        self.db = db
        self.home = home
        self.spec = spec
        self.stats = stats

    def _op(self, kind: str, pid: int, table: str, key, args: tuple,
            ) -> OpDescriptor:
        return OpDescriptor(kind, pid, table, key,
                            args).bind(self.db.dispatch_context)

    def _with_ships(self, verb: Round, pid: int, write: tuple,
                    ) -> Generator:
        """``verb`` and, in the same instant, one ``replicate`` round
        shipping ``write`` to ``pid``'s replicas (if it has any);
        returns every verb's result, flattened."""
        rounds = [verb]
        if self.db.replicas is not None:
            ships = [(rserver,
                      OpDescriptor("replica_apply", rserver,
                                   args=(pid, (write,))).bind(
                                       self.db.dispatch_context))
                     for rserver in self.db.replicas.replica_servers(pid)]
            if ships:
                rounds.append(Round(ships, "replicate"))
        results = yield All(rounds)
        return [value for values in results for value in values]

    def migrate(self, table: str, key, dst: int,
                epoch: int) -> Generator:
        """One move as a locking transaction; returns True if applied."""
        tr = self.db.tracer
        if not tr.enabled:
            return (yield from self._migrate(table, key, dst, epoch))
        # background moves trace under their own ids (same per-home
        # sampled counter as requests)
        trace = tr.new_trace(self.home)
        t0 = self.db.cluster.sim.now
        applied = yield from self._migrate(table, key, dst, epoch)
        tr.span(trace, 0, 0, self.home, "migrate", t0,
                self.db.cluster.sim.now, "ok" if applied else "skipped")
        return applied

    def _migrate(self, table: str, key, dst: int,
                 epoch: int) -> Generator:
        db = self.db
        stats = self.stats
        if table in db.catalog.replicated_tables:
            # replicated tables resolve to the reader: there is no
            # placement to move, and deleting a copy would lose data
            return False
        src = db.partition_of(table, key, reader=self.home)
        if src == dst:
            return False
        txn_id = next_txn_id()
        [result] = yield Round(
            ((src, _lock_read_op(db, src, table, key, LockMode.EXCLUSIVE,
                                 txn_id)),),
            "migrate_lock")
        if result == PEER_DOWN:
            return False    # the source's worker is dead: nothing held
        if result[0] == "conflict":
            stats.moves_conflicted += 1
            return False
        if result[0] == "missing":
            # the bucket lock was taken before the miss surfaced —
            # release it, then skip the move (record was deleted)
            stats.moves_missing += 1
            yield from self._release(src, txn_id)
            return False
        _, fields, version = result
        installed = yield from self._with_ships(
            Round(((dst, self._op("migrate_install", dst, table, key,
                                  (fields, version))),), "migrate_install"),
            dst, ("insert", table, key, fields))
        if PEER_DOWN in installed:
            # a copy that did not land everywhere must not become the
            # record's home: keep the source authoritative
            yield from self._release(src, txn_id)
            return False
        yield from self._flip_everywhere(table, key, dst, epoch)
        yield from self._with_ships(
            Round(((src, self._op("migrate_remove", src, table, key,
                                  (txn_id,))),), "migrate_remove"),
            src, ("delete", table, key, None))
        stats.moves_applied += 1
        return True

    def _release(self, src: int, txn_id: int) -> Generator:
        yield Round(((src, self._op("release", src, None, None,
                                    (txn_id,))),), "migrate_remove")

    def _flip_everywhere(self, table: str, key, dst: int,
                         epoch: int) -> Generator:
        """Local flip first (new local resolutions see it immediately),
        then broadcast; the move's delete waits for every ack."""
        yield Compute(FLIP_CPU_US)
        self.db.catalog.scheme.apply_move(table, key, dst, epoch)
        self.stats.flips_applied += 1
        others = [server.id for server in self.db.cluster.servers
                  if server.id != self.home]
        if others:
            yield All([Rpc(server, (RPC_FLIP, (table, key, dst, epoch)))
                       for server in others])


# -- controller election (mp backend) -----------------------------------------

@op_handler("lease_acquire")
def _do_lease_acquire(ctx: DispatchContext, d: OpDescriptor) -> tuple:
    """Grant/renew the controller lease kept on this server.

    The cell is ``[holder, expires_at_us]``; a request is granted when
    the cell is vacant, already held by the requester (renewal), or the
    previous holder's lease has lapsed (its worker stopped renewing —
    it is dead).  Replies ``(status, previous_holder)`` so candidates
    can detect failovers without the cell having to survive the death
    of the very server that stores it.
    """
    holder, now_us, ttl_us = d.args
    cell = ctx.leases.get(d.partition)
    if cell is None:
        cell = ctx.leases[d.partition] = [None, float("-inf")]
    previous = cell[0]
    if previous is None or previous == holder or now_us >= cell[1]:
        cell[0] = holder
        cell[1] = now_us + ttl_us
        return ("granted", previous)
    return ("held", previous)


def _lease_acquire_op(db, pid: int, holder: int, now_us: float,
                      ttl_us: float) -> OpDescriptor:
    return OpDescriptor("lease_acquire", pid,
                        args=(holder, now_us,
                              ttl_us)).bind(db.dispatch_context)


# -- the controller loop ------------------------------------------------------

def _epoch_plan(db, spec: PlacementSpec, controller: PlacementController,
                migrator: MigrationExecutor, stats: PlacementStats,
                window: TelemetryWindow, horizon_us: float,
                now_fn) -> Generator:
    """One epoch's plan -> migrate tail (shared by both loops)."""
    yield Compute(PLAN_CPU_US)
    epoch = db.placement_epoch() + 1
    replicated = db.catalog.replicated_tables
    plan: MigrationPlan = controller.plan(
        window, db.n_partitions,
        lambda t, k: db.partition_of(t, k, reader=migrator.home),
        epoch, movable=lambda table: table not in replicated)
    stats.plans += 1
    stats.moves_planned += len(plan)
    stats.last_epoch = epoch
    for move in plan.moves:
        if now_fn() >= horizon_us:
            return
        yield from migrator.migrate(move.table, move.key, move.dst,
                                    epoch)


def controller_loop(db, telemetry: dict[int, AccessTelemetry],
                    spec: PlacementSpec, controller: PlacementController,
                    migrator: MigrationExecutor, stats: PlacementStats,
                    horizon_us: float) -> Generator:
    """The per-epoch observe -> plan -> migrate loop (one coroutine,
    spawned on the controller's engine; runs until the horizon).

    Telemetry is drained from every engine this process drives — the
    whole cluster on sim/aio, this worker's share on mp.
    """
    now_fn = lambda: db.cluster.sim.now  # noqa: E731 - tiny closure
    while now_fn() < horizon_us:
        yield Sleep(spec.epoch_us)
        now = now_fn()
        stats.epochs += 1
        window = TelemetryWindow.merged(
            [t.drain(now) for t in telemetry.values()])
        stats.commits_observed += window.commits_observed
        if now >= horizon_us:
            return
        if window.commits_observed < spec.min_window_commits:
            continue
        yield from _epoch_plan(db, spec, controller, migrator, stats,
                               window, horizon_us, now_fn)


def lease_controller_loop(db, telemetry: dict[int, AccessTelemetry],
                          spec: PlacementSpec,
                          controller: PlacementController,
                          migrator: MigrationExecutor,
                          stats: PlacementStats,
                          horizon_us: float, cluster) -> Generator:
    """Leader-elected controller candidate (multiprocess backend).

    Every worker runs one of these instead of pinning the controller
    to whichever worker happens to own ``CONTROLLER_HOME``: each epoch
    the candidate bids for the lease cell on ``CONTROLLER_HOME``'s
    server, and only the holder plans and migrates.  When the holder's
    worker dies, its renewals stop — the TTL lapses (or the cell itself
    vanishes with the dead server and is recreated vacant by the
    respawn) and a surviving candidate acquires, counted as a
    controller failover in the recovery stats.  While the lease server
    is unreachable the epoch is skipped and bidding retries.

    Only the cell's first host knows the cell starts vacant, so it bids
    first and leads first, as ``CONTROLLER_HOME`` does on the
    single-process backends.  Every other candidate — a peer, or a
    respawn whose predecessor took the cell with it — may be looking at
    a lease it cannot see, and sits out one TTL before its first bid.
    """
    from ..sim.codec import PEER_DOWN
    lease_server = CONTROLLER_HOME
    me = cluster.worker_id
    last_known = None  # most recent holder any reply disclosed
    if cluster.generation or not cluster.owns(lease_server):
        yield Sleep(LEASE_TTL_US)
    now_fn = lambda: db.cluster.sim.now  # noqa: E731 - tiny closure
    while now_fn() < horizon_us:
        yield Sleep(spec.epoch_us)
        now = now_fn()
        stats.epochs += 1
        window = TelemetryWindow.merged(
            [t.drain(now) for t in telemetry.values()])
        stats.commits_observed += window.commits_observed
        if now >= horizon_us:
            return
        [reply] = yield Round(
            ((lease_server,
              _lease_acquire_op(db, lease_server, me, now, LEASE_TTL_US)),),
            "placement_lease")
        if reply == PEER_DOWN or reply is None:
            continue  # lease server's worker is down: retry next epoch
        status, previous = reply
        if previous is not None:
            last_known = previous
        if status != "granted":
            continue
        if last_known is not None and last_known != me:
            db.recovery.controller_failovers += 1
        last_known = me
        if window.commits_observed < spec.min_window_commits:
            continue
        yield from _epoch_plan(db, spec, controller, migrator, stats,
                               window, horizon_us, now_fn)
