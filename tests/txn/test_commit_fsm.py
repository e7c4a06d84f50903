"""Commit-FSM and crash-recovery tests (txn/commit_fsm.py).

The crash matrix is the heart: simulate dying at every protocol point
— before/after the coordinator's prepare and decision records, and
before/after the participant's — then "restart" by rebuilding the
database over the same WAL directory and recovering.  Two invariants
must hold at every point: a transaction whose decision record became
durable is fully present after recovery, one without is fully absent
(presumed abort), and either way no in-doubt transaction leaks locks
or stash entries.
"""

import pytest

from repro.analysis import ProcedureRegistry
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.bench import RunConfig
from repro.storage import Catalog
from repro.txn import (CommitFsm, Database, InvalidTransition, TwoPLExecutor,
                       TxnPhase, TxnRequest, recover_database,
                       recovery_program, resolve_in_doubt_local)
from repro.txn import commit_fsm
from repro.txn.commit_fsm import SimulatedCrash
from repro.workloads.bank import BankWorkload

AMOUNT = 50.0


def make_db(tmp_path, n_partitions=2):
    workload = BankWorkload(n_accounts=100)
    cluster = Cluster(n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    catalog = Catalog(n_partitions, HashScheme(n_partitions))
    config = RunConfig(wal="fsync", wal_dir=str(tmp_path))
    db = Database(cluster, catalog, workload.tables(), registry,
                  wal=config.wal_spec())
    workload.populate(db.loader())
    return db, cluster


def cross_partition_transfer(db):
    """A transfer whose source lives on the coordinator (partition of
    ``src``) and whose destination is a remote participant."""
    src = 1
    dst = next(a for a in range(2, 100)
               if db.partition_of("accounts", a)
               != db.partition_of("accounts", src))
    home = db.partition_of("accounts", src)
    return TxnRequest("transfer", {"src": src, "dst": dst,
                                   "amount": AMOUNT}, home=home), src, dst


def balance_of(db, acct):
    pid = db.partition_of("accounts", acct)
    return db.store(pid).read("accounts", acct)[0]["balance"]


@pytest.fixture
def crash_at(monkeypatch):
    """Install a hook that raises SimulatedCrash at the nth occurrence
    of a named protocol point."""

    def install(point: str, occurrence: int = 1):
        state = {"left": occurrence}

        def hook(name: str) -> None:
            if name == point:
                state["left"] -= 1
                if state["left"] == 0:
                    raise SimulatedCrash(name)

        monkeypatch.setattr(commit_fsm, "CRASH_HOOK", hook)

    yield install
    monkeypatch.setattr(commit_fsm, "CRASH_HOOK", None)


# -- the crash matrix ---------------------------------------------------------

# (protocol point, does the txn survive recovery?) — the decision
# record's durability is the exact commit point
MATRIX = [
    ("coord:before_prepare", False),
    ("coord:after_prepare", False),
    ("part:before_prepare", False),
    ("part:after_prepare", False),
    ("coord:before_decision", False),
    ("coord:after_decision", True),
    ("part:after_decision", True),
]


@pytest.mark.parametrize("point,survives", MATRIX)
def test_crash_matrix(tmp_path, crash_at, point, survives):
    db, cluster = make_db(tmp_path)
    executor = TwoPLExecutor(db)
    request, src, dst = cross_partition_transfer(db)
    crash_at(point)
    cluster.engine(request.home).spawn(executor.execute(request))
    with pytest.raises(SimulatedCrash):
        cluster.run()
    db.close_wals()

    # "restart": a fresh process rebuilds the same database over the
    # surviving log directory, replays, and settles in-doubt txns
    db2, _cluster2 = make_db(tmp_path)
    in_doubt = recover_database(db2)
    resolve_in_doubt_local(db2, in_doubt)

    if survives:
        assert balance_of(db2, src) == 1000.0 - AMOUNT
        assert balance_of(db2, dst) == 1000.0 + AMOUNT
    else:
        assert balance_of(db2, src) == 1000.0
        assert balance_of(db2, dst) == 1000.0
    # no in-doubt txn leaks locks or stash entries
    for pid in range(2):
        assert not db2.store(pid).owners_holding()
    assert not db2.commit_table.stashed_entries()
    assert not db2.commit_table.in_doubt_txns()
    # a crash before the first append leaves empty logs — replaying
    # nothing is not a recovery
    expected = 0 if point == "coord:before_prepare" else 1
    assert db2.recovery.recoveries == expected


def test_crash_matrix_double_restart(tmp_path, crash_at):
    """Recovery is idempotent: crashing after the decision and
    recovering twice applies the writes once."""
    db, cluster = make_db(tmp_path)
    executor = TwoPLExecutor(db)
    request, src, dst = cross_partition_transfer(db)
    crash_at("coord:after_decision")
    cluster.engine(request.home).spawn(executor.execute(request))
    with pytest.raises(SimulatedCrash):
        cluster.run()
    db.close_wals()

    for _restart in range(2):
        db2, _ = make_db(tmp_path)
        in_doubt = recover_database(db2)
        resolve_in_doubt_local(db2, in_doubt)
        assert balance_of(db2, src) == 1000.0 - AMOUNT
        assert balance_of(db2, dst) == 1000.0 + AMOUNT
        db2.close_wals()


def test_clean_commit_leaves_nothing_in_doubt(tmp_path):
    """The happy path: prepare/decision/end all logged, recovery of the
    full log redoes the txn and reports nothing in doubt."""
    db, cluster = make_db(tmp_path)
    executor = TwoPLExecutor(db)
    request, src, dst = cross_partition_transfer(db)
    outcomes = []
    cluster.engine(request.home).spawn(executor.execute(request),
                                       outcomes.append)
    cluster.run()
    assert outcomes[0].committed
    db.close_wals()

    db2, _ = make_db(tmp_path)
    assert recover_database(db2) == []
    assert balance_of(db2, src) == 1000.0 - AMOUNT
    assert db2.recovery.txns_redone >= 1


def test_recovery_program_resolves_via_coordinator_query(tmp_path):
    """The mp-style path: an in-doubt participant entry settles by a
    recover_query verb against the coordinator's decision table."""
    db, cluster = make_db(tmp_path)
    coordinator, participant = 0, 1
    txn_id = 9001
    writes = (("update", "accounts", 4242, {"balance": 7.0}),)
    db.store(participant).insert("accounts", 4242, {"balance": 0.0})
    db.commit_table.stash(participant, txn_id, coordinator, writes)
    db.commit_table.record_decision(txn_id, True)
    entries = db.commit_table.stashed_entries()
    cluster.engine(participant).spawn(recovery_program(db, entries))
    cluster.run()
    assert db.store(participant).read(
        "accounts", 4242)[0]["balance"] == 7.0
    assert not db.commit_table.stashed_entries()
    assert db.recovery.in_doubt_resolved == 1


def test_recovery_program_presumes_abort_on_unknown(tmp_path):
    db, cluster = make_db(tmp_path)
    txn_id = 9002
    writes = (("update", "accounts", 4242, {"balance": 7.0}),)
    db.store(1).insert("accounts", 4242, {"balance": 0.0})
    db.commit_table.stash(1, txn_id, 0, writes)  # no decision anywhere
    entries = db.commit_table.stashed_entries()
    cluster.engine(1).spawn(recovery_program(db, entries))
    cluster.run()
    assert db.store(1).read("accounts", 4242)[0]["balance"] == 0.0
    assert not db.commit_table.stashed_entries()


# -- FSM phase discipline -----------------------------------------------------


class _StubReq:
    home = 0


class _StubState:
    request = _StubReq()
    txn_id = 1


class _StubDb:
    @staticmethod
    def wal_of(_sid):
        return None


class _StubEx:
    db = _StubDb()


def make_fsm():
    return CommitFsm(_StubEx(), _StubState())


def test_fsm_starts_in_initialize():
    assert make_fsm().phase is TxnPhase.INITIALIZE


def test_fsm_rejects_commit_before_prepare():
    fsm = make_fsm()
    with pytest.raises(InvalidTransition, match="initialize -> committed"):
        fsm._transition(TxnPhase.COMMITTED)


def test_fsm_rejects_reviving_an_aborted_txn():
    fsm = make_fsm()
    fsm.mark_aborted()
    assert fsm.phase is TxnPhase.ABORTED
    with pytest.raises(InvalidTransition):
        fsm._transition(TxnPhase.PREPARED)


def test_fsm_rejects_double_abort():
    fsm = make_fsm()
    fsm.mark_aborted()
    with pytest.raises(InvalidTransition):
        fsm.mark_aborted()
