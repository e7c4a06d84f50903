"""Cross-backend conformance: one program, one decision sequence.

The figure sweeps cannot compare backends directly — sim counts
simulated microseconds, aio/mp count wall time, and contention makes
wall-clock outcomes scheduling-dependent.  What *must* agree everywhere
is the decision logic: given the same database and the same sequence of
transactions executed one at a time (no races), every backend has to
produce the identical commit/abort decision — and abort reason — for
every attempt, because each decision then depends only on data, never
on timing.

This module is that shared program: a bank database over 2 partitions
with replication, driven by a fixed request list that deliberately
exercises commits, logical aborts (insufficient funds), and read misses
(transfers touching a nonexistent account), through either the 2PL or
the OCC executor — covering the codec's lock/read, commit, release,
validate, and replica_apply verbs plus RPC-free and replicated paths.

The multiprocess backend's forked workers serve the parent's build of
it; the tier-1 suite
(`tests/sim/test_mp_runtime.py`) asserts sim == aio == mp at 1, 2 and N
workers.
"""

from __future__ import annotations

from functools import partial

from .._util import make_rng
from ..core import HotRecordTable
from ..partitioning import HashScheme
from ..placement import (MigrationExecutor, PlacementSpec, PlacementStats,
                         install_flip_handler)
from ..sim import Round
from ..sim.codec import OpDescriptor
from ..storage import Catalog
from ..txn.common import TxnRequest, seed_txn_ids
from ..workloads.bank import BankWorkload
from ..workloads.ycsb import YcsbWorkload
from .harness import Load, Run, RunConfig, execute, make_schedulers
from .metrics import Metrics
from .setups import build_run

N_ACCOUNTS = 64
DRIVER_HOME = 0
"""All conformance transactions coordinate from server 0 (worker 0 on
the mp backend); remote accounts force cross-server — and on mp,
cross-process — verbs."""


def conformance_config(backend: str, **fields) -> RunConfig:
    """The shared run shape, with ``fields`` laid over it.
    ``horizon_us`` is irrelevant (the driver executes a fixed request
    list, not horizon-bounded load) but bounds the mp hang guard.
    ``mp_codec`` / ``mp_workers`` select the mp frame encoding and
    topology — decisions must not depend on how frames are encoded or
    who owns which server."""
    shape = dict(n_partitions=2, backend=backend, n_replicas=1,
                 horizon_us=30_000.0, seed=13)
    return RunConfig(**{**shape, **fields})


def _hashed(config: RunConfig) -> Catalog:
    return Catalog(config.n_partitions, HashScheme(config.n_partitions))


def build_conformance_run(config: RunConfig, executor: str = "2pl") -> Run:
    """Deterministically build the shared bank database + executor."""
    workload = BankWorkload(n_accounts=N_ACCOUNTS, initial_balance=100.0,
                            amount=30.0)
    return build_run(workload, _hashed(config), config, executor)


def conformance_requests() -> list[TxnRequest]:
    """The fixed program: commits, logical aborts, and read misses.

    Account k lives on partition ``hash(k) % 2``; the mix below crosses
    partitions repeatedly.  Repeated debits from account 1 (balance 100,
    amount 30) commit three times then fail the funds CHECK — a
    deterministic LOGICAL abort; transfers touching account 9999 miss.
    """
    reqs = []

    def transfer(src, dst, amount=30.0):
        reqs.append(TxnRequest("transfer",
                               {"src": src, "dst": dst, "amount": amount},
                               home=DRIVER_HOME))

    for dst in (2, 3, 4, 5):          # drain account 1: 3 commits + aborts
        transfer(1, dst)
    transfer(1, 6)                    # still broke: LOGICAL abort again
    transfer(2, 1)                    # refund: commit
    transfer(1, 7)                    # funded again: commit
    transfer(8, 9999)                 # READ_MISS (missing destination)
    transfer(9999, 8)                 # READ_MISS (missing source)
    for src, dst in ((10, 11), (12, 13), (14, 10), (11, 12)):
        transfer(src, dst)            # plain cross-partition commits
    transfer(10, 15, amount=1000.0)   # LOGICAL abort (never that rich)
    reqs.append(TxnRequest("audit", {"accounts": [1, 2, 10, 11, 14]},
                           home=DRIVER_HOME))
    return reqs


def decision_program(run: Run, decisions: list):
    """A coroutine executing the fixed requests strictly in sequence."""
    for request in conformance_requests():
        outcome = yield from run.executor.execute(request)
        decisions.append((request.proc, outcome.committed,
                          outcome.reason.value if outcome.reason else None))
    return decisions


def program_driver(program, run: Run, cluster, worker_id: int | None):
    """Driver for :func:`~repro.bench.harness.execute`: the process
    owning ``DRIVER_HOME`` drives ``program(run, decisions)``, any
    other mp worker only serves."""
    decisions: list = []
    if worker_id is not None:
        seed_txn_ids(worker_id)
    if worker_id is None or cluster.owns(DRIVER_HOME):
        cluster.engine(DRIVER_HOME).spawn(program(run, decisions))
    return lambda: {"decisions": decisions}


def _decisions_on(run: Run, program) -> list[tuple]:
    """Run ``program(run, decisions)`` from ``DRIVER_HOME`` on
    ``run``'s backend."""
    payloads = execute(run, partial(program_driver, program))
    decisions = [p["decisions"] for p in payloads if p["decisions"]]
    assert len(decisions) == 1, "exactly one process drives the program"
    return decisions[0]


def run_conformance(backend: str, executor: str = "2pl",
                    mp_codec: str = "packed",
                    mp_workers: int | None = None) -> list[tuple]:
    """Execute the shared program on ``backend``; return its decisions."""
    config = conformance_config(backend, mp_codec=mp_codec,
                                mp_workers=mp_workers)
    return _decisions_on(build_conformance_run(config, executor),
                         decision_program)


# -- scheduler conformance ----------------------------------------------------
#
# The scheduling layer must be *transparent* to decision logic: a fixed,
# race-free request sequence has to produce the identical commit/abort
# decisions whether it runs through the raw executor loop, through
# FifoScheduler mediation, or through ConflictClassScheduler mediation
# — and, for each scheduler, identically on every backend.  The bank
# program above covers cross-partition verbs; the YCSB snippet below
# hammers two hot keys so conflict classes actually form (sequential
# execution means the classes serialize trivially, which is exactly the
# point: scheduling may reorder *when*, never *what*).

YCSB_N_KEYS = 64
YCSB_HOT_KEYS = (0, 1)


def build_ycsb_conformance_run(config: RunConfig,
                               executor: str = "2pl") -> Run:
    """Deterministic hot-key YCSB database + executor."""
    workload = YcsbWorkload(n_keys=YCSB_N_KEYS, reads_per_txn=2,
                            writes_per_txn=2)
    return build_run(workload, _hashed(config), config, executor)


def ycsb_conformance_requests() -> list[TxnRequest]:
    """A fixed hot-key program: every transaction writes one of two hot
    keys plus a distinct cold key, so the conflict scheduler builds
    real (overlapping) classes while the decisions stay deterministic."""
    reqs = []
    for i in range(12):
        hot = YCSB_HOT_KEYS[i % len(YCSB_HOT_KEYS)]
        cold = 8 + i
        reqs.append(TxnRequest("ycsb", {
            "read_keys": [16 + i, 40 + (i % 4)],
            "write_keys": [hot, cold],
        }, home=DRIVER_HOME))
    return reqs


def scheduled_decision_program(run: Run, decisions: list):
    """Execute the hot-key requests in sequence, each through the
    harness's own request lifecycle with the driver engine's scheduler
    per ``run.config`` (``config.scheduler`` being the sentinel
    ``"raw"`` is the historical unscheduled loop: the bare executor).
    A shed request records a ``"shed"`` decision instead of an outcome.
    """
    def record(request, outcome, _now=None):
        if outcome is None:
            decisions.append((request.proc, "shed", None))
        else:
            decisions.append(
                (request.proc, outcome.committed,
                 outcome.reason.value if outcome.reason else None))

    cluster = run.database.cluster
    load = None
    if run.config.scheduler != "raw":
        load = Load(run.executor, run.config, cluster, Metrics(),
                    make_schedulers(run.executor, run.config,
                                    [DRIVER_HOME]))
    rng = make_rng(run.config.seed, "conformance")
    for request in ycsb_conformance_requests():
        if load is None:
            record(request, (yield from run.executor.execute(request)))
        else:
            yield from load.lifecycle(DRIVER_HOME, request, rng, 0,
                                      cluster.sim.now, "conformance",
                                      partial(record, request))
    return decisions


def run_ycsb_conformance(backend: str, executor: str = "2pl",
                         scheduler: str | None = "fifo") -> list[tuple]:
    """The scheduled hot-key program's decisions on ``backend``.

    ``scheduler``: ``"fifo"`` / ``"conflict"`` mediate through that
    scheduler; ``None`` runs the raw (unscheduled) loop.
    """
    config = conformance_config(backend, retry_aborts=False,
                                scheduler=scheduler or "raw")
    return _decisions_on(build_ycsb_conformance_run(config, executor),
                         scheduled_decision_program)


# -- migration conformance ----------------------------------------------------
#
# Live record migration must be *transparent* to decision logic: a
# fixed, race-free program that interleaves transactions with record
# moves has to produce identical commit/abort decisions — and identical
# final record values — on every backend.  The program below hammers
# one hot YCSB key across two partitions: write it, migrate it to the
# other partition (a locking migration txn: lock at source, ship,
# install, flip the epoch-versioned routing, delete at source), write
# it again at its new home, migrate it *back*, and audit the counter.
# The counter equals the number of committed writes everywhere, which
# is the sequential form of "a migrating record never loses a
# committed write" (the concurrent form lives in
# tests/placement/test_migration.py on the deterministic simulator).

MIGRATION_HOT_KEY = 3


def build_migration_conformance_run(config: RunConfig,
                                    executor: str = "2pl") -> Run:
    """Deterministic YCSB database over a *live* epoch-versioned
    catalog scheme, with the placement-flip RPC installed (in every mp
    worker too: each forks with it)."""
    workload = YcsbWorkload(n_keys=YCSB_N_KEYS, reads_per_txn=2,
                            writes_per_txn=2)
    catalog = Catalog(config.n_partitions,
                      HotRecordTable.empty().live_scheme(
                          HashScheme(config.n_partitions)))
    run = build_run(workload, catalog, config, executor)
    install_flip_handler(run.database, PlacementSpec(kind="adaptive"),
                         PlacementStats(placement="adaptive"))
    return run


def migration_decision_program(run: Run, decisions: list):
    """Transactions interleaved with live migrations, in sequence."""
    db = run.database
    stats = PlacementStats(placement="adaptive")
    migrator = MigrationExecutor(db, DRIVER_HOME,
                                 PlacementSpec(kind="adaptive"), stats)
    hot = MIGRATION_HOT_KEY

    def txn(reads, writes):
        outcome = yield from run.executor.execute(TxnRequest(
            "ycsb", {"read_keys": reads, "write_keys": writes},
            home=DRIVER_HOME))
        decisions.append(("ycsb", outcome.committed,
                          outcome.reason.value if outcome.reason else None))

    def note_placement():
        decisions.append(("placed", db.partition_of("usertable", hot),
                          db.placement_epoch()))

    yield from txn([1, 2], [hot, 5])          # write the hot key at home
    yield from txn([hot, 6], [7, 8])          # read it
    note_placement()

    src = db.partition_of("usertable", hot)
    dst = (src + 1) % db.n_partitions
    moved = yield from migrator.migrate("usertable", hot, dst, epoch=1)
    decisions.append(("migrate", moved, None))
    note_placement()

    yield from txn([9, 10], [hot, 11])        # write at the new home
    yield from txn([hot, 12], [13, 14])       # read at the new home

    moved = yield from migrator.migrate("usertable", hot, src, epoch=2)
    decisions.append(("migrate_back", moved, None))
    note_placement()
    yield from txn([15], [hot, 16])           # write back at the old home

    # a move of a nonexistent record must skip cleanly (and leave no lock)
    missing = yield from migrator.migrate("usertable", 9999,
                                          dst, epoch=3)
    decisions.append(("migrate_missing", missing, None))
    yield from txn([17], [18, 19])            # the table still works

    pid = db.partition_of("usertable", hot)
    [value] = yield Round(((pid, OpDescriptor(
        "plain_read", pid, "usertable", hot).bind(db.dispatch_context)),),
        "lock_read")
    decisions.append(("counter", value[1]["counter"],
                      stats.moves_applied))
    return decisions


def run_migration_conformance(backend: str,
                              executor: str = "2pl") -> list[tuple]:
    """The migration program's decisions on ``backend`` (on mp every
    worker serves the placement flips)."""
    return _decisions_on(
        build_migration_conformance_run(conformance_config(backend),
                                        executor),
        migration_decision_program)
