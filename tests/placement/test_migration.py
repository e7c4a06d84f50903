"""Live migration on the deterministic simulator.

The headline property: **a migrating record never loses a committed
write**.  The migration transaction holds the record's exclusive lock
from source-lock to source-delete, so concurrent writers either land
before the value is shipped (and ship with it), abort on the lock
conflict, or commit at the new home after the flip; the counter
invariant at the end of the concurrency test is exactly the number of
committed writes, however the race interleaved.
"""

from repro._util import make_rng
from repro.bench import RunConfig
from repro.bench.setups import build_run
from repro.bench.conformance import (MIGRATION_HOT_KEY, build_conformance_run,
                                     build_migration_conformance_run,
                                     conformance_config)
from repro.bench.metrics import APP_ABORTS
from repro.placement import (CONTROLLER_HOME, MigrationExecutor,
                             PlacementSpec, PlacementStats, migration)
import pytest

from repro.partitioning import HashScheme
from repro.sim import All, Round, Sleep
from repro.sim.codec import PEER_DOWN
from repro.storage import Catalog
from repro.txn.common import AbortReason, TxnRequest
from repro.txn.occ import OccExecutor
from repro.workloads import ycsb
from repro.workloads.ycsb import DriftingYcsbWorkload

HOT = MIGRATION_HOT_KEY


def build_sim_run():
    return build_migration_conformance_run(conformance_config("sim"))


def make_migrator(run):
    stats = PlacementStats(placement="adaptive")
    return MigrationExecutor(run.database, 0,
                             PlacementSpec(kind="adaptive"), stats), stats


def drive(run, gen):
    results = []
    run.database.cluster.engine(0).spawn(
        gen, on_done=lambda value: results.append(value))
    run.database.cluster.run()
    return results


def test_migrate_moves_record_flips_routing_and_replicas():
    run = build_sim_run()
    db = run.database
    migrator, stats = make_migrator(run)
    src = db.partition_of("usertable", HOT)
    dst = (src + 1) % db.n_partitions
    before, _v = db.store(src).read("usertable", HOT)

    (moved,) = drive(run, migrator.migrate("usertable", HOT, dst, epoch=1))
    assert moved and stats.moves_applied == 1

    # storage: value at the new home, source clean
    assert db.store(src).read("usertable", HOT) is None
    after, _v = db.store(dst).read("usertable", HOT)
    assert after == before
    assert not db.store(src).is_locked("usertable", HOT)

    # routing: flipped and epoch-versioned
    assert db.partition_of("usertable", HOT) == dst
    assert db.placement_epoch() == 1
    assert db.moved_since("usertable", HOT, 0)
    assert not db.moved_since("usertable", HOT, 1)

    # replicas followed the record
    for rserver in db.replicas.replica_servers(dst):
        copied, _v = db.replicas.store_on(rserver, dst).read("usertable",
                                                             HOT)
        assert copied == before
    for rserver in db.replicas.replica_servers(src):
        assert db.replicas.store_on(rserver, src).read("usertable",
                                                       HOT) is None


def test_locked_record_is_skipped_not_waited_on():
    run = build_sim_run()
    db = run.database
    migrator, stats = make_migrator(run)
    src = db.partition_of("usertable", HOT)
    from repro.storage import LockMode
    assert db.store(src).try_lock("usertable", HOT, LockMode.EXCLUSIVE,
                                  owner="live-txn")

    (moved,) = drive(run, migrator.migrate(
        "usertable", HOT, (src + 1) % db.n_partitions, epoch=1))
    assert not moved
    assert stats.moves_conflicted == 1 and stats.moves_applied == 0
    assert db.partition_of("usertable", HOT) == src
    assert db.placement_epoch() == 0


def test_missing_record_is_skipped_without_leaking_its_lock():
    run = build_sim_run()
    db = run.database
    migrator, stats = make_migrator(run)
    pid = db.partition_of("usertable", 9_999)
    (moved,) = drive(run, migrator.migrate(
        "usertable", 9_999, (pid + 1) % db.n_partitions, epoch=1))
    assert not moved
    assert stats.moves_missing == 1
    assert not db.store(pid).is_locked("usertable", 9_999)


def drive_by_hand(gen, replies):
    """Run a migration generator with no runtime: each verb runs against
    the database, except that a verb of a kind in ``replies`` gets that
    reply instead (how a dead worker answers); other effects get None."""
    def perform(effect):
        if isinstance(effect, All):
            return [perform(each) for each in effect.effects]
        if isinstance(effect, Round):
            if effect.kind in replies:
                return [replies[effect.kind]] * len(effect.items)
            return [op() for _target, op in effect.items]
        return None
    reply = None
    while True:
        try:
            effect = gen.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = perform(effect)


@pytest.mark.parametrize("dead", [
    "migrate_lock",         # the source's worker
    "migrate_install",      # the destination's
    "replicate",            # a worker hosting a destination replica
])
def test_a_move_that_meets_a_dead_worker_keeps_the_source(dead):
    run = build_sim_run()
    db = run.database
    migrator, stats = make_migrator(run)
    src = db.partition_of("usertable", HOT)
    before, _v = db.store(src).read("usertable", HOT)

    moved = drive_by_hand(
        migrator._migrate("usertable", HOT, (src + 1) % db.n_partitions,
                          epoch=1),
        {dead: PEER_DOWN})
    assert moved is False and stats.moves_applied == 0
    assert db.partition_of("usertable", HOT) == src
    assert db.placement_epoch() == 0
    assert db.store(src).read("usertable", HOT)[0] == before
    assert not db.store(src).is_locked("usertable", HOT)


def test_migrated_aborts_are_retryable_and_classified():
    assert AbortReason.MIGRATED not in APP_ABORTS
    run = build_sim_run()
    db = run.database
    migrator, _stats = make_migrator(run)
    src = db.partition_of("usertable", HOT)
    drive(run, migrator.migrate("usertable", HOT,
                                (src + 1) % db.n_partitions, epoch=1))
    # a miss on the moved record by an epoch-0 transaction is MIGRATED;
    # a miss on a record that never existed stays READ_MISS
    assert db.moved_since("usertable", HOT, 0)
    assert not db.moved_since("usertable", 9_999, 0)


def test_concurrent_writers_never_lose_a_committed_write():
    """Writers hammer the hot key while it ping-pongs between
    partitions; the final counter equals the committed writes."""
    run = build_sim_run()
    db = run.database
    executor = run.executor
    migrator, stats = make_migrator(run)
    outcomes = []

    def writer(home: int, slot: int):
        rng = make_rng(31, "writer", home, slot)
        for i in range(30):
            cold = 20 + (home * 97 + slot * 31 + i) % 40
            outcome = yield from executor.execute(TxnRequest(
                "ycsb", {"read_keys": [cold], "write_keys": [HOT]},
                home=home))
            outcomes.append(outcome)
            yield Sleep(rng.uniform(2.0, 12.0))

    def ping_pong():
        applied, epoch = 0, 1
        while applied < 4 and epoch < 60:
            yield Sleep(9.0)  # NO_WAIT: keep retrying into lock gaps
            current = db.partition_of("usertable", HOT)
            moved = yield from migrator.migrate(
                "usertable", HOT, (current + 1) % db.n_partitions,
                epoch=epoch)
            epoch += 1
            if moved:
                applied += 1

    cluster = db.cluster
    for home in range(db.n_partitions):
        for slot in range(2):
            cluster.engine(home).spawn(writer(home, slot))
    cluster.engine(0).spawn(ping_pong())
    cluster.run()

    assert stats.moves_applied >= 2, "the race must actually happen"
    commits = sum(1 for o in outcomes if o.committed)
    assert commits > 0
    home = db.partition_of("usertable", HOT)
    fields, _version = db.store(home).read("usertable", HOT)
    assert fields["counter"] == commits, (
        f"{commits} committed writes but the counter shows "
        f"{fields['counter']}: a write was lost (or double-applied) "
        f"across {stats.moves_applied} migrations")
    # the record exists exactly once cluster-wide
    copies = [pid for pid in range(db.n_partitions)
              if db.store(pid).read("usertable", HOT) is not None]
    assert copies == [home]
    # every abort was a retryable race, never a phantom disappearance
    reasons = {o.reason for o in outcomes if not o.committed}
    assert reasons <= {AbortReason.LOCK_CONFLICT, AbortReason.MIGRATED}


def test_static_runs_never_classify_misses_as_migrated():
    run = build_conformance_run(conformance_config("sim"))
    db = run.database
    assert db.placement_epoch() == 0
    assert not db.moved_since("accounts", 1, 0)


def test_lease_failover_is_counted_when_holder_stops_renewing(monkeypatch):
    """Deterministic leader-election handover on the simulator.

    Candidate 0 hosts the lease cell, so it bids first (candidate 1
    sits out one TTL) and renews every epoch until its (short)
    horizon passes — the sim's stand-in for a dead worker's renewals
    stopping.  Once the TTL lapses, candidate 1's next bid is granted,
    and because earlier "held" replies disclosed who the leader was,
    the grant is counted as a controller failover.  Steady-state
    renewals must never count."""
    from types import SimpleNamespace

    from repro.placement import (MigrationExecutor, PlacementController,
                                 PlacementStats, lease_controller_loop)

    run = build_sim_run()
    db = run.database
    monkeypatch.setattr(migration, "LEASE_TTL_US", 2_500.0)
    spec = PlacementSpec(kind="adaptive", epoch_us=1_000.0,
                         min_window_commits=10 ** 9)  # bid, never plan

    def candidate(worker_id: int, horizon_us: float):
        stats = PlacementStats(placement="adaptive")
        migrator = MigrationExecutor(db, 0, spec, stats)
        return lease_controller_loop(
            db, {}, spec, PlacementController(spec), migrator, stats,
            horizon_us, SimpleNamespace(worker_id=worker_id, generation=0,
                                        owns=lambda s: s == worker_id))

    cluster = db.cluster
    cluster.engine(0).spawn(candidate(0, horizon_us=5_000.0))
    cluster.engine(0).spawn(candidate(1, horizon_us=20_000.0))
    cluster.run()

    assert db.recovery.controller_failovers == 1
    holder, expires = db.leases[CONTROLLER_HOME]
    assert holder == 1 and expires > 5_000.0


# -- a moved record keeps its version -----------------------------------------

def write_hot(run, n: int) -> list:
    """``n`` committed read-modify-writes of the hot key, one by one."""
    executor = run.executor

    def writes():
        done = []
        for _ in range(n):
            done.append((yield from executor.execute(TxnRequest(
                "ycsb", {"read_keys": [], "write_keys": [HOT]}, home=0))))
        return done

    (outcomes,) = drive(run, writes())
    assert all(o.committed for o in outcomes)
    return outcomes


def hot_version(db) -> int:
    return db.store(db.partition_of("usertable", HOT)).version_of(
        "usertable", HOT)


def test_a_moved_record_keeps_its_version_there_and_back():
    run = build_sim_run()
    db = run.database
    migrator, stats = make_migrator(run)
    write_hot(run, 3)
    src = db.partition_of("usertable", HOT)
    dst = (src + 1) % db.n_partitions
    before = hot_version(db)
    assert before == 3
    (moved,) = drive(run, migrator.migrate("usertable", HOT, dst, epoch=1))
    assert moved and db.partition_of("usertable", HOT) == dst
    assert hot_version(db) == before
    write_hot(run, 2)
    (moved,) = drive(run, migrator.migrate("usertable", HOT, src, epoch=2))
    assert moved and db.partition_of("usertable", HOT) == src
    assert hot_version(db) == before + 2
    assert stats.moves_applied == 2


def test_occ_does_not_commit_a_read_the_move_made_stale():
    """T reads the hot key at version v at its old home; the key moves
    and takes v more writes.  Installed at version 0 (as it once was),
    the record would be back at v, T's read would validate, and T would
    commit on a stale value."""
    run = build_migration_conformance_run(conformance_config("sim"), "occ")
    db = run.database
    migrator, _stats = make_migrator(run)
    write_hot(run, 3)
    read_at = hot_version(db)

    class MoveBeforeValidation(OccExecutor):
        def _validate(self, state, writes):
            assert ("usertable", HOT) in dict(state.reads)
            current = db.partition_of("usertable", HOT)
            moved = yield from migrator.migrate(
                "usertable", HOT, (current + 1) % db.n_partitions, epoch=1)
            assert moved
            for _ in range(read_at):
                outcome = yield from run.executor.execute(TxnRequest(
                    "ycsb", {"read_keys": [], "write_keys": [HOT]},
                    home=0))
                assert outcome.committed
            return (yield from super()._validate(state, writes))

    stale_reader = MoveBeforeValidation(db)
    (outcome,) = drive(run, stale_reader.execute(TxnRequest(
        "ycsb", {"read_keys": [HOT], "write_keys": [HOT + 1]}, home=0)))
    assert not outcome.committed
    assert outcome.reason is AbortReason.VALIDATION


@pytest.mark.parametrize("executor", ["2pl", "occ"])
def test_adaptive_runs_keep_a_serializable_history(executor):
    """A record written before and after its move once read as a lost
    update to the history oracle; with the version carried across, an
    adaptive run's history has no cycle."""
    config = RunConfig(
        n_partitions=2, concurrent_per_engine=2, horizon_us=6_000.0,
        warmup_us=250.0, seed=5, route_by_data=True, record_history=True,
        placement=PlacementSpec(kind="adaptive", epoch_us=800.0,
                                max_moves_per_epoch=16, min_gain=4.0,
                                min_window_commits=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ycsb, "DRIFT_READS_PER_TXN", 3)
        workload = DriftingYcsbWorkload(n_groups=24, group_size=6,
                                        zipf_exponent=1.3,
                                        shift_at_us=2_000.0)
    run = build_run(workload, Catalog(2, HashScheme(2)), config, executor)
    workload.bind_clock(lambda: run.database.cluster.sim.now)
    result = run.run()
    assert result.metrics.placement_stats.moves_applied > 0
    assert result.history.commits
    assert result.history.find_cycle() is None
