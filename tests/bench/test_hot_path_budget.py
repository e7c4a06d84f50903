"""Work budgets of the hot path, as counts (never times).

On a small fixed-seed TPC-C Chiller sim run: storage hashes a key only
to find a lock word (never to find a record), makes a lock word only
for a bucket that gets locked (never at build), a message's payload is
walked once and a procedure's static shape compiled once.  The budgets
sit well under what the per-use work costs (81 hash evaluations per
commit when record ops hashed too, 360 000 bucket objects at build, one
walk per *recipient*, one ``_alias_map`` per op instance per
transaction), so a change that reintroduces it fails here without
anyone having to read a profile.
"""

import pytest

import repro._util as util
import repro.sim.network as network
import repro.storage.bucket as bucket
import repro.txn.executor as executor
from repro.analysis import StoredProcedure
from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run

HASHES_PER_COMMIT = 20
"""Storage hashes once per lock-word lookup and nowhere else: this run
makes 17.0 ``try_lock`` calls per commit (attempts that abort included;
``release_all`` needs no lookup).  The 57 record operations per commit
(reads, version checks, writes, inserts, deletes on primaries and
replicas) must add none."""
ALIAS_MAPS_PER_RUN = 1_000


def stores_of(db):
    """Every primary and replica store of a database."""
    primaries = [db.store(p) for p in range(db.n_partitions)]
    replicas = [db.replicas.store_on(server, p)
                for p in range(db.n_partitions)
                for server in db.replicas.replica_servers(p)]
    return primaries + replicas


def tables_of(db):
    return [store.table(name) for store in stores_of(db)
            for name in store.table_names()]


@pytest.fixture(scope="module")
def counted_run():
    """Run the cell once with counters on the pure functions and on
    lock-word construction."""
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=500.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    counts = {"hashes": 0, "alias_maps": 0, "lock_words": 0}
    locked = set()              # (table store, bucket) ever looked up
    walked = []                 # every object whose size was walked
    depth = [0]
    patch = pytest.MonkeyPatch()
    stable_hash, walk = util.stable_hash, network.approx_payload_bytes
    alias_map = StoredProcedure._alias_map
    LockWord, lock_for = bucket.LockWord, bucket.BucketStore.lock_for

    def counting_lock_word():
        counts["lock_words"] += 1
        return LockWord()

    def counting_lock_for(self, key):
        depth[0] += 1           # the observer's own hash is not counted
        locked.add((id(self), stable_hash(key) % self.n_buckets))
        depth[0] -= 1
        return lock_for(self, key)

    def counting_hash(key):     # recursion on tuple items is not counted
        counts["hashes"] += depth[0] == 0
        depth[0] += 1
        try:
            return stable_hash(key)
        finally:
            depth[0] -= 1

    def counting_walk(obj):
        walked.append(obj)
        return walk(obj)

    def counting_alias_map(self, spec, index):
        counts["alias_maps"] += 1
        return alias_map(self, spec, index)

    try:
        patch.setattr(bucket, "LockWord", counting_lock_word)
        run = make_tpcc_run("chiller", config)
        counts["lock_words_at_build"] = counts["lock_words"]
        counts["records_at_build"] = sum(map(len, tables_of(run.database)))
        patch.setattr(bucket.BucketStore, "lock_for", counting_lock_for)
        patch.setattr(util, "stable_hash", counting_hash)
        patch.setattr(bucket, "stable_hash", counting_hash)
        patch.setattr(network, "approx_payload_bytes", counting_walk)
        patch.setattr(executor, "approx_payload_bytes", counting_walk)
        patch.setattr(StoredProcedure, "_alias_map", counting_alias_map)
        result = run.run()
    finally:
        patch.undo()
    counts["buckets_locked"] = len(locked)
    return run, result, counts, walked


def test_only_lock_lookups_hash(counted_run):
    _run, result, counts, _walked = counted_run
    commits = result.metrics.commits
    assert commits > 300
    assert 0 < counts["hashes"] <= HASHES_PER_COMMIT * commits


def test_build_allocates_nothing_per_bucket(counted_run):
    run, _result, counts, _walked = counted_run
    assert counts["lock_words_at_build"] == 0
    # a table is its record dict and an (empty) lock table: the build
    # holds one entry per record, however many buckets are declared
    tables = tables_of(run.database)
    declared = sum(table.n_buckets for table in tables)
    assert declared > 10 * counts["records_at_build"] > 0
    assert all(len(table.records) == len(table) for table in tables)


def test_lock_words_exist_only_for_buckets_that_were_locked(counted_run):
    run, _result, counts, _walked = counted_run
    existing = sum(table.lock_words() for table in tables_of(run.database))
    assert existing == counts["lock_words"]
    assert 0 < existing <= counts["buckets_locked"]


def test_each_message_is_sized_at_most_once(counted_run):
    _run, result, _counts, walked = counted_run
    assert len({id(obj) for obj in walked}) == len(walked)
    stats = result.database.cluster.network.stats
    sent = stats.messages + stats.messages_local
    verbs = stats.one_sided_remote + stats.one_sided_local
    # fewer walks than messages: a replicate message fanned out to two
    # replicas is two sends and one walk
    assert 0 < len(walked) < sent + verbs
    assert len(walked) < sent


def test_procedure_shapes_are_compiled_not_rederived(counted_run):
    run, result, counts, _walked = counted_run
    registry = run.database.registry
    compiled = sum(len(shapes) for name in registry.names()
                   for shapes in registry.get(name)._layouts.values())
    assert counts["alias_maps"] == compiled     # one per compiled shape
    assert compiled <= ALIAS_MAPS_PER_RUN
    # and not one per op instance per transaction
    assert compiled < 5 * result.metrics.commits
