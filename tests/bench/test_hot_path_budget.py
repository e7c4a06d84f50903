"""Work budgets of the hot path, as counts (never times).

On a small fixed-seed TPC-C Chiller sim run: storage hashes a key only
to find a lock word (never to find a record), makes a lock word only
for a bucket that gets locked (never at build) and none for an inner
region (which checks locks and takes none), the commit path walks no
payload (write sets are sized from their shape, an ack is a constant;
on the hot-key and WAL YCSB shapes too), a procedure's static shape
compiled once, a transaction instantiated once, its region split
planned once per signature and its inner region's CPU charge counted
once per split, the Chiller messages are built without a frozen
dataclass, a lock lookup's mixer rounds mostly come from the memo, an
event is its heap tuple and nothing else, and a released lock word
holds no GC-tracked container.  The budgets sit well under what the
per-use work costs (81 hash evaluations per commit when record ops
hashed too, 360 000 bucket objects at build, 3.1 generic payload walks
per commit (2.8 and 1.5 on the hot-key and WAL shapes), a lock word per
bucket an inner region checks, one ``_alias_map`` per op instance per
transaction, one instantiation per region, one split and one charge per
transaction, four dataclass messages per two-region commit, 82 mixer
rounds computed per commit without the memo, one handle object per
event, one set per lock word, 3.1 fields dicts per record at build and
a new one per read), so a change that reintroduces it fails here
without anyone having to read a profile.

On every sim run shape the benchmark and the golden digests use, no
collector pass starts inside the event loop, one young pass starts
after it, and no reference cycle is left behind (174 passes inside the
loop on one seed-7 repeat of the TPC-C benchmark cell before the pause,
each freeing nothing).
"""

import dataclasses
import gc
import random
import sys

import pytest
import test_golden_runs as golden

import repro._util as util
import repro.core.chiller as chiller
import repro.core.regions as regions
import repro.sched.conflict as conflict
import repro.sim.events as events
import repro.sim.network as network
import repro.storage.bucket as bucket
import repro.traffic.openloop as openloop
from repro.analysis import StoredProcedure
from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.core import RegionPlanner
from repro.storage import PartitionStore
from repro.txn import TwoPLExecutor
from repro.workloads.ycsb import YcsbWorkload

HASHES_PER_COMMIT = 3
"""Storage hashes once per lock-word lookup and nowhere else: this run
makes 18.2 ``try_lock`` and ``check_lock`` calls per commit (attempts
that abort included; ``release_all`` needs no lookup), and hashes 2.54
keys per commit, since a check in a table where nobody holds a lock
looks nothing up (18.2 per commit while every check hashed).  The
record operations (reads, version checks, writes, inserts, deletes on
primaries and replicas) must add none."""
MIXER_ROUNDS_PER_COMMIT = 10
"""Rounds the memo misses (and so computes) per commit, starting from an
empty memo: this run computes 8.6 of the 82 its hashes request."""
ALIAS_MAPS_PER_RUN = 1_000
INSTANTIATIONS_PER_COMMIT = 1.2
"""This run instantiates 1.015 times per commit; while an inline inner
region re-instantiated what its own coordinator had, it was 2.03."""


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


def fields_census(db):
    """(distinct fields dicts, logical records, the dicts a store that
    shares every unwritten copy holds) over every primary, replica and
    replicated-table copy.  A copy a write reached holds the dict its
    own merge made, so each record owns one dict per written copy plus
    one, shared, for all its unwritten copies (if any is left)."""
    dicts = set()
    copies = {}                 # (table, key) -> [written, unwritten]
    for table in tables_of(db):
        for key, fields in table.records.items():
            dicts.add(id(fields))
            seen = copies.setdefault((table.table, key), [0, 0])
            seen[key not in table.versions] += 1
    shared = sum(written + (unwritten > 0)
                 for written, unwritten in copies.values())
    return len(dicts), len(copies), shared


def reads_return_the_stored_dict(db):
    return all(store.read(name, key)[0] is fields
               for store in stores_of(db)
               for name in store.table_names()
               for key, fields in store.table(name).records.items())


@pytest.fixture(scope="module")
def counted_run():
    """Run the cell once with counters on the pure functions and on
    lock-word construction."""
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=2_000.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    counts = {"hashes": 0, "alias_maps": 0, "lock_words": 0,
              "instantiations": 0, "plan_misses": 0, "inner_charges": 0,
              "inner_rpcs": 0, "frozen_builds": 0, "mixer_rounds": 0,
              "events": 0, "walks": 0, "inner_sections": 0,
              "inner_lock_words": 0}
    odd_entries = []            # heap entries that are not (time, seq, fn)
    locked = set()              # (table store, bucket) ever looked up
    depth = [0]
    in_inner = [False]
    patch = pytest.MonkeyPatch()
    stable_hash = util.stable_hash
    alias_map = StoredProcedure._alias_map
    instantiate, split = StoredProcedure.instantiate, RegionPlanner._split
    signature = RegionPlanner._signature
    signatures = set()          # every distinct one the planners met
    LockWord, lock_for = bucket.LockWord, bucket.BucketStore.lock_for
    charge = regions.inner_cpu_us
    inner_handler = chiller.ChillerExecutor._inner_handler
    section = chiller.ChillerExecutor._inner_critical_section
    mixer, heappush = util._splitmix64, events.heappush

    def counting_mixer(x):
        counts["mixer_rounds"] += 1
        return mixer(x)

    def checking_heappush(queue, entry):
        counts["events"] += 1
        if not (type(entry) is tuple and len(entry) == 3
                and type(entry[0]) is float and type(entry[1]) is int
                and callable(entry[2])):
            odd_entries.append(entry)
        heappush(queue, entry)

    def counting_lock_word():
        counts["lock_words"] += 1
        counts["inner_lock_words"] += in_inner[0]
        return LockWord()

    def watched_section(self, *args):
        counts["inner_sections"] += 1
        in_inner[0] = True
        try:
            return section(self, *args)
        finally:
            in_inner[0] = False

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

    def counting_alias_map(self, spec, index):
        counts["alias_maps"] += 1
        return alias_map(self, spec, index)

    def counting_instantiate(self, params):
        counts["instantiations"] += 1
        return instantiate(self, params)

    def counting_split(self, instances, params):
        counts["plan_misses"] += 1
        return split(self, instances, params)

    def recording_signature(self, instances, params):
        made = signature(self, instances, params)
        signatures.add(made)
        return made

    def counting_charge(instances):
        counts["inner_charges"] += 1
        return charge(instances)

    def counting_inner_handler(self, server_id, src, body):
        counts["inner_rpcs"] += 1
        return inner_handler(self, server_id, src, body)

    def counting_init(init):
        def counted(self, *args, **kwargs):
            counts["frozen_builds"] += 1
            init(self, *args, **kwargs)
        return counted

    try:
        patch.setattr(bucket, "LockWord", counting_lock_word)
        # the executor registers its RPC handler when it is built
        patch.setattr(chiller.ChillerExecutor, "_inner_handler",
                      counting_inner_handler)
        run = make_tpcc_run("chiller", config)
        counts["lock_words_at_build"] = counts["lock_words"]
        counts["records_at_build"] = sum(map(len, tables_of(run.database)))
        counts["fields_at_build"] = fields_census(run.database)
        patch.setattr(bucket.BucketStore, "lock_for", counting_lock_for)
        patch.setattr(util, "stable_hash", counting_hash)
        patch.setattr(bucket, "stable_hash", counting_hash)
        patch.setattr(util, "_splitmix64", counting_mixer)
        patch.setattr(util, "_mixed", {})     # start cold, whatever ran before
        patch.setattr(events, "heappush", checking_heappush)
        patch.setattr(network, "_walk", counting_walks(counts))
        patch.setattr(chiller.ChillerExecutor, "_inner_critical_section",
                      watched_section)
        patch.setattr(StoredProcedure, "_alias_map", counting_alias_map)
        patch.setattr(StoredProcedure, "instantiate", counting_instantiate)
        patch.setattr(RegionPlanner, "_split", counting_split)
        patch.setattr(RegionPlanner, "_signature", recording_signature)
        patch.setattr(regions, "inner_cpu_us", counting_charge)
        patch.setattr(chiller, "inner_cpu_us", counting_charge)
        for cls in frozen_dataclasses("repro.core", "repro.replication"):
            patch.setattr(cls, "__init__", counting_init(cls.__init__))
        result = run.run()
    finally:
        patch.undo()
    counts["buckets_locked"] = len(locked)
    counts["signatures"] = len(signatures)
    counts["odd_entries"] = odd_entries
    return run, result, counts


def counting_walks(counts):
    """``network._walk`` counting the walks ``approx_payload_bytes``
    starts (depth 0), however a caller imported it."""
    walk = network._walk

    def counted(obj, depth, seen):
        counts["walks"] += depth == 0
        return walk(obj, depth, seen)
    return counted


def frozen_dataclasses(*packages):
    """Every frozen dataclass defined in a loaded module of ``packages``."""
    return [cls for name, module in list(sys.modules.items())
            if name.startswith(packages) and module is not None
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == name
            and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen]


def test_only_lock_lookups_hash(counted_run):
    _run, result, counts = counted_run
    commits = result.metrics.commits
    assert commits > 300
    assert 0 < counts["hashes"] <= HASHES_PER_COMMIT * commits


def test_the_mixer_memo_computes_few_rounds(counted_run):
    _run, result, counts = counted_run
    commits = result.metrics.commits
    assert 0 < counts["mixer_rounds"] <= MIXER_ROUNDS_PER_COMMIT * commits


def test_an_event_is_its_heap_tuple_and_nothing_else(counted_run):
    _run, result, counts = counted_run
    # every queued entry is (float time, int seq, callable): no handle
    # or other per-event object rides along
    assert counts["events"] > 5 * result.metrics.commits
    assert counts["odd_entries"] == []


def test_build_allocates_nothing_per_bucket(counted_run):
    run, _result, counts = counted_run
    assert counts["lock_words_at_build"] == 0
    # a table is its record dict and an (empty) lock table: the build
    # holds one entry per record, however many buckets are declared
    tables = tables_of(run.database)
    declared = sum(table.n_buckets for table in tables)
    assert declared > 10 * counts["records_at_build"] > 0
    assert all(len(table.records) == len(table) for table in tables)


def test_each_record_is_stored_once(counted_run):
    """Every copy of a record (primaries, two replicas, the item table
    in every partition) shares one fields dict until a write reaches
    it, and a read hands that dict out: 21 532 copies held 6 844
    records' fields in 21 532 dicts at build while each copy was its
    own, and a read copied them."""
    run, _result, counts = counted_run
    dicts, records, _shared = counts["fields_at_build"]
    assert dicts == records < counts["records_at_build"] / 3
    dicts, records, shared = fields_census(run.database)
    assert records < dicts == shared
    assert reads_return_the_stored_dict(run.database)


def test_the_census_sees_a_copy_per_store_and_per_read():
    """A ``dict(fields)`` planted back at load, at insert or at read
    fails the budget above."""
    def build():
        return make_tpcc_run("chiller", RunConfig(
            n_partitions=2, concurrent_per_engine=2, horizon_us=300.0,
            warmup_us=0.0, seed=11, n_replicas=1))

    put, insert = bucket.BucketStore.put, bucket.BucketStore.insert
    read = PartitionStore.read
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bucket.BucketStore, "put",
                      lambda self, key, fields, version=0:
                      put(self, key, dict(fields), version))
        dicts, records, _shared = fields_census(build().database)
    assert dicts > records
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bucket.BucketStore, "insert",
                      lambda self, key, fields: insert(self, key,
                                                       dict(fields)))
        run = build()
        assert run.run().metrics.commits > 0
        dicts, _records, shared = fields_census(run.database)
    assert dicts > shared
    run = build()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PartitionStore, "read", lambda self, table, key: (
            None if (got := read(self, table, key)) is None
            else (dict(got[0]), got[1])))
        assert not reads_return_the_stored_dict(run.database)
    assert reads_return_the_stored_dict(run.database)


def test_lock_words_exist_only_for_buckets_that_were_locked(counted_run):
    run, _result, counts = counted_run
    existing = sum(table.lock_words() for table in tables_of(run.database))
    assert existing == counts["lock_words"]
    assert 0 < existing <= counts["buckets_locked"]


def test_the_commit_path_walks_no_payload(counted_run):
    _run, result, counts = counted_run
    # the executor's replicate verbs, the inner host's replication
    # message and its acks are all sized without the generic walk, and
    # every inner host is its coordinator here (no inner request RPC):
    # 3.1 walks per commit while they walked
    stats = result.database.cluster.network.stats
    assert stats.bytes_by_kind["replicate"] > 0
    assert stats.bytes_by_kind[chiller.RPC_REPLICATE] > 0
    assert counts["inner_rpcs"] == 0
    assert counts["walks"] == 0


@pytest.mark.parametrize("shape", ["hot", "wal"])
def test_ycsb_commits_walk_no_payload(shape, tmp_path):
    """The hot-key and WAL YCSB shapes walked 2.8 and 1.5 times per
    commit, once per written partition's replicate verbs."""
    run = (golden.tiny_hot_ycsb_run() if shape == "hot"
           else tiny_wal_run(tmp_path))
    counts = {"walks": 0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_walk", counting_walks(counts))
        result = run.run()
    assert result.metrics.commits > 100
    assert result.database.cluster.network.stats.bytes_by_kind[
        "replicate"] > 0
    assert counts["walks"] == 0


def test_an_inner_region_makes_no_lock_word(counted_run):
    _run, result, counts = counted_run
    # it checks the words outer regions made and makes none itself
    assert counts["inner_sections"] > result.metrics.commits / 2
    assert counts["inner_lock_words"] == 0


def test_region_plans_are_made_once_per_signature(counted_run):
    _run, result, counts = counted_run
    # a miss plans from scratch; every later plan of the signature is a
    # cache hit, so a signature never misses twice (the cache is bounded
    # far above what this run meets, so it is never emptied here)
    assert 0 < counts["plan_misses"] <= counts["signatures"]
    assert counts["plan_misses"] < result.metrics.commits / 5


def test_the_inner_charge_is_counted_once_per_split(counted_run):
    _run, result, counts = counted_run
    # a split miss counts its inner region's ops once and the plan cache
    # keeps the charge; only an inner region served over RPC, which
    # instantiates its ops again, counts them again (on this cell every
    # inner host is its transaction's coordinator)
    assert 0 < counts["inner_charges"] <= (counts["plan_misses"]
                                           + counts["inner_rpcs"])
    assert counts["inner_charges"] < result.metrics.commits / 2


def test_no_frozen_dataclass_is_built_on_the_message_path(counted_run):
    _run, result, counts = counted_run
    # the inner request (built inline too), the replication message, its
    # acks and the writes they carry are tuples; the run really sent them
    by_kind = result.database.cluster.network.stats.bytes_by_kind
    assert by_kind[chiller.RPC_REPLICATE] > 0
    assert by_kind[chiller.RPC_ACK] > 0
    assert counts["frozen_builds"] == 0


def test_a_transaction_is_instantiated_once(counted_run):
    _run, result, counts = counted_run
    # once per attempt by the coordinator; an inline inner region reuses
    # those instances, only an inner region shipped to another host
    # instantiates again
    assert counts["instantiations"] <= (INSTANTIATIONS_PER_COMMIT
                                        * result.metrics.commits)


def test_procedure_shapes_are_compiled_not_rederived(counted_run):
    run, result, counts = counted_run
    registry = run.database.registry
    compiled = sum(len(shapes) for proc in registry._procs.values()
                   for shapes in proc._layouts.values())
    assert counts["alias_maps"] == compiled     # one per compiled shape
    assert compiled <= ALIAS_MAPS_PER_RUN
    # and not one per op instance per transaction
    assert compiled < 5 * result.metrics.commits


# -- the hot open-loop path, as counts -----------------------------------------
#
# Each admitted arrival of the hot-key cell used to instantiate its
# procedure a second time to fingerprint it (30.2 op instances per
# commit for 18.2 executed), seed a Mersenne Twister that only a retry
# draws from (1.00 seeded per commit), and draw every key through
# ``Random.choices`` (8.26 calls per commit).


@pytest.fixture(scope="module")
def counted_hot_run():
    counts = {"instantiations": 0, "task_rngs": 0, "retried": 0,
              "choices": 0}
    make_rng, instantiate = util.make_rng, StoredProcedure.instantiate
    execute = TwoPLExecutor.execute
    choices = random.Random.choices

    def counting_make_rng(seed, *salt):
        counts["task_rngs"] += salt[:1] == ("open-loop-task",)
        return make_rng(seed, *salt)

    def counting_instantiate(self, params):
        counts["instantiations"] += 1
        return instantiate(self, params)

    def counting_execute(self, request, trace=0, attempt=0):
        counts["retried"] += attempt == 1
        return execute(self, request, trace=trace, attempt=attempt)

    def counting_choices(self, *args, **kwargs):
        counts["choices"] += 1
        return choices(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "make_rng", counting_make_rng)
        patch.setattr(openloop, "make_rng", counting_make_rng)
        patch.setattr(StoredProcedure, "instantiate", counting_instantiate)
        patch.setattr(TwoPLExecutor, "execute", counting_execute)
        patch.setattr(random.Random, "choices", counting_choices)
        result = golden.tiny_hot_ycsb_run().run()
    return result, counts


def test_a_hot_request_is_instantiated_once_per_attempt(counted_hot_run):
    result, counts = counted_hot_run
    assert result.metrics.commits > 100
    assert counts["instantiations"] <= result.metrics.attempts


def test_only_a_retrying_arrival_seeds_its_stream(counted_hot_run):
    result, counts = counted_hot_run
    arrivals = sum(tenant.scheduled
                   for tenant in result.metrics.open_loop.tenants.values())
    # streams seeded per arrival <= the share of arrivals that retried
    assert 0 < counts["retried"] < arrivals
    assert counts["task_rngs"] <= counts["retried"]


def test_keys_are_drawn_without_random_choices(counted_hot_run):
    _result, counts = counted_hot_run
    assert counts["choices"] == 0


# -- the wire path, as counts ---------------------------------------------------
#
# Wall clock cannot resolve a reintroduced frame per verb on a busy CI
# box; a count can.  Two workers of one 2-server YCSB cluster share one
# event loop (and this process), each with its own database build and
# transport, so every cross-worker verb crosses a real localhost socket.


@pytest.fixture(scope="module")
def counted_wire_run():
    import asyncio

    from repro.bench.harness import drive
    from repro.bench.setups import make_ycsb_run
    from repro.sim import TcpTransport, WallClockRuntime
    from repro.sim.codec import (FRAME_PICKLE, FrameCodec, WireVerbReply,
                                 WireVerbs)
    from repro.sim.transport import bind_listener
    from repro.workloads.ycsb import YcsbWorkload

    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=150_000.0, warmup_us=0.0, seed=11,
                       backend="mp", mp_workers=2)
    counts = {"request_frames": 0, "foreign_rounds": 0, "verb_frames": 0,
              "verb_frames_pickled": 0, "replica_apply_verbs": 0}

    class CountingCodec(FrameCodec):
        def encode(self, src, dst, wire, what=None):
            body = super().encode(src, dst, wire, what)
            if type(wire) in (WireVerbs, WireVerbReply):
                counts["verb_frames"] += 1
                counts["verb_frames_pickled"] += body[0] == FRAME_PICKLE
            if type(wire) is WireVerbs:
                counts["replica_apply_verbs"] += sum(
                    spec[0] == "replica_apply" for spec in wire.specs)
            return body
    patch = pytest.MonkeyPatch()
    workers, collects = [], []
    try:
        for worker_id in range(2):
            # one build per worker stands in for the copy a forked
            # worker inherits; each binds it as a worker process would
            run = make_ycsb_run("2pl", config, workload=YcsbWorkload(
                n_keys=400, reads_per_txn=8, writes_per_txn=2))
            cluster = run.database.cluster
            cluster.bind(worker_id)
            workers.append(cluster)
            collects.append(drive(run, cluster, worker_id))

        do_round = WallClockRuntime._do_round

        def counting_round(self, effect, cont):
            # what the budget is stated in: one (round, foreign worker)
            # pair per distinct foreign owner in a round
            cluster = self._cluster
            counts["foreign_rounds"] += len(
                {cluster.owner_of(pid) for pid, _op in effect.items
                 if not cluster.owns(pid)})
            return do_round(self, effect, cont)

        patch.setattr(WallClockRuntime, "_do_round", counting_round)
        send = TcpTransport.send

        def counting_send(self, src, dst, wire):
            counts["request_frames"] += type(wire) is WireVerbs
            return send(self, src, dst, wire)

        patch.setattr(TcpTransport, "send", counting_send)

        async def main():
            listeners = [bind_listener() for _ in workers]
            ports = {w: l.getsockname()[1] for w, l in enumerate(listeners)}
            a, b = workers
            async with b.serving(TcpTransport(b, listeners[1], ports,
                                              CountingCodec())), \
                    a.serving(TcpTransport(a, listeners[0], ports,
                                           CountingCodec())):
                # each worker keeps serving the other after its own
                # load has drained
                await asyncio.gather(a._drain(), b._drain())
            for cluster in workers:
                if cluster._error is not None:
                    raise cluster._error

        asyncio.run(asyncio.wait_for(main(), 60.0))
    finally:
        patch.undo()
    payloads = [collect() for collect in collects]
    counts["commits"] = sum(p["metrics"].commits for p in payloads)
    counts["verbs"] = sum(p["live"]["stats"].one_sided_remote
                          for p in payloads)
    return counts


def test_one_request_frame_per_round_and_foreign_worker(counted_wire_run):
    counts = counted_wire_run
    assert counts["commits"] > 50
    assert 0 < counts["request_frames"] <= counts["foreign_rounds"]
    # and the rounds really carry several verbs each: a frame per verb
    # would put these two counts level
    assert counts["verbs"] > 1.5 * counts["request_frames"]


def test_every_verb_frame_is_packed(counted_wire_run):
    counts = counted_wire_run
    # replication ships ``replica_apply`` chains: no verb kind, table or
    # value on the 2PL path falls back to a whole-frame pickle (a
    # request and its reply: two verb frames per request)
    assert counts["replica_apply_verbs"] > 0
    assert counts["verb_frames"] == 2 * counts["request_frames"] > 0
    assert counts["verb_frames_pickled"] == 0


def test_a_lock_word_holds_no_container_once_released(counted_run):
    run, _result, counts = counted_run
    # shared holders are a tuple, the untracked empty one when there are
    # none: a set per word would make it two GC-tracked objects, not one
    words = [word for table in tables_of(run.database)
             for word in table._locks.values()]
    assert len(words) == counts["lock_words"] > 0
    assert all(word.is_free() for word in words)
    assert sum(gc.is_tracked(word._shared) for word in words) == 0


# -- the collector during a run ---------------------------------------------
#
# ``Simulator.run`` pauses the cyclic collector, which is only sound if no
# event leaves a reference cycle behind.  Each run below is watched from
# the first allocation of ``Run.run()`` to its return, with every
# unreachable object kept (``DEBUG_SAVEALL``) instead of freed.


def watched(call):
    """``call()`` from a clean heap with the collector watched; returns
    ``(value, passes, garbage)``: ``passes`` are ``(where, generation)``
    of every pass started (``where`` is "loop" inside ``Simulator.run``,
    "after" once it returned), ``garbage`` every object a full pass
    right after ``call`` returns finds unreachable (the automatic passes
    during ``call`` included)."""
    where, passes = ["before"], []
    sim_run = events.Simulator.run

    def marked_run(self):
        where[0] = "loop"
        try:
            sim_run(self)
        finally:
            where[0] = "after"

    def probe(phase, info):
        if phase == "start":
            passes.append((where[0], info["generation"]))

    patch = pytest.MonkeyPatch()
    debug = gc.get_debug()
    gc.collect()
    try:
        patch.setattr(events.Simulator, "run", marked_run)
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.callbacks.append(probe)
        try:
            value = call()
        finally:
            gc.callbacks.remove(probe)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        patch.undo()
    return value, passes, garbage


def tiny_wal_run(wal_dir):
    """The group-commit WAL benchmark cell, shrunk."""
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=3_000.0, warmup_us=300.0, seed=11,
                       wal="group", wal_group_size=8, wal_dir=str(wal_dir))
    return make_ycsb_run("2pl", config, workload=YcsbWorkload(
        n_keys=2000, reads_per_txn=8, writes_per_txn=2))


TINY_RUNS = {build.__name__: lambda _wal_dir, build=build: build()
             for build in golden.GOLDEN_RUNS}
"""The golden configurations (their TPC-C and hot-key runs are those
benchmark cells, shrunk) and the WAL cell, the one shape they miss."""
TINY_RUNS["tiny_wal_run"] = tiny_wal_run


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_a_run_leaves_no_cycle_and_pays_one_young_pass(name, tmp_path,
                                                       monkeypatch):
    if name in {build.__name__ for build in golden.TWO_WAITER_RUNS}:
        monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", 2)
    run = TINY_RUNS[name](tmp_path)
    result, passes, garbage = watched(run.run)
    assert result.metrics.commits > 0
    assert garbage == []
    assert [gen for where, gen in passes if where == "loop"] == []
    assert [gen for where, gen in passes if where == "after"] == [0]


def test_the_watch_sees_a_cycle_an_event_leaves():
    sim = events.Simulator()

    def leave_a_cycle():
        cycle = []
        cycle.append(cycle)

    sim.schedule(1.0, leave_a_cycle)
    _value, _passes, garbage = watched(sim.run)
    assert len(garbage) == 1 and garbage[0][0] is garbage[0]


def test_the_collector_is_paused_for_the_loop_and_restored():
    seen = []
    sim = events.Simulator()
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    sim.run()
    assert seen == [False] and gc.isenabled()


def test_a_raising_event_restores_the_collector():
    sim = events.Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.isenabled()


def test_a_caller_that_paused_the_collector_keeps_it_paused():
    seen = []
    sim = events.Simulator()
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    gc.disable()
    try:
        sim.run()
        assert seen == [False] and not gc.isenabled()
    finally:
        gc.enable()
