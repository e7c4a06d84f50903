"""Durability after replay, on sim: a run with a group-commit WAL and
``record_history`` leaves logs that, replayed by
``commit_fsm.recover_database`` into a fresh database built over the
same log directory, rebuild every primary copy the history wrote
(``HistoryRecorder.store_mismatches``).  Replicas are not logged, so
their copies are left out here.  Dropping one committed transaction's
forced decision record must fail the check."""

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.storage.wal import R_DECISION, R_PREPARE, ROLE_COORDINATOR
from repro.storage.wal import WriteAheadLog
from repro.txn import recover_database
from repro.workloads.ycsb import YcsbWorkload


def ycsb_2pl(wal_dir):
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=3_000.0, warmup_us=300.0, seed=11,
                       wal="group", wal_group_size=8, wal_dir=str(wal_dir),
                       record_history=True)
    workload = YcsbWorkload(n_keys=400, reads_per_txn=4, writes_per_txn=4)
    return make_ycsb_run("2pl", config, workload=workload)


def tpcc_2pl(wal_dir):
    return make_tpcc_run("2pl", RunConfig(
        n_partitions=4, concurrent_per_engine=8, horizon_us=2_000.0,
        warmup_us=50.0, seed=11, wal="group", wal_group_size=8,
        wal_dir=str(wal_dir), record_history=True))


def primary_mismatches_after_replay(build, wal_dir):
    """Run, close the logs, replay them into a fresh build, and return
    (the history, the primary copies it finds wrong)."""
    finished = build(wal_dir).run()
    finished.database.close_wals()
    fresh = build(wal_dir).database
    assert recover_database(fresh) == []        # nothing left in doubt
    fresh.close_wals()
    history = finished.history
    return history, [m for m in history.store_mismatches(fresh)
                     if m[0] == "primary"]


@pytest.mark.parametrize("build", [ycsb_2pl, tpcc_2pl],
                         ids=["ycsb_2pl", "tpcc_2pl"])
def test_replay_rebuilds_every_primary_copy(build, tmp_path):
    history, wrong = primary_mismatches_after_replay(build, tmp_path)
    assert len({rid for log in history.commits
                for rid, _v in log.writes}) > 100
    assert wrong == []


@pytest.mark.parametrize("build", [ycsb_2pl, tpcc_2pl],
                         ids=["ycsb_2pl", "tpcc_2pl"])
def test_a_lost_forced_decision_fails_the_check(build, tmp_path):
    """The 20th transaction to force a commit decision over a prepare
    that writes its own (home) partition loses that record: the run
    still commits it, but replay presumes it aborted."""
    append = WriteAheadLog.append
    writes_home: set[int] = set()
    forced = []
    dropped = []

    def losing_append(self, record, sync=None):
        if record[0] == R_PREPARE and record[2] == ROLE_COORDINATOR:
            _t, txn_id, _role, home, wire = record
            if any(pid == home and writes for pid, writes in wire):
                writes_home.add(txn_id)
        elif (record[0] == R_DECISION and record[2] is True and sync
              and record[1] in writes_home):
            forced.append(record[1])
            if len(forced) == 20:
                dropped.append(record[1])
                return None
        return append(self, record, sync)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WriteAheadLog, "append", losing_append)
        finished = build(tmp_path).run()
    finished.database.close_wals()
    assert dropped
    fresh = build(tmp_path).database
    recover_database(fresh)
    fresh.close_wals()
    [log] = [log for log in finished.history.commits
             if log.txn_id == dropped[0]]
    wrong = {rid for copy, rid, _c, _s
             in finished.history.store_mismatches(fresh)
             if copy == "primary"}
    assert wrong & {rid for rid, _v in log.writes}
