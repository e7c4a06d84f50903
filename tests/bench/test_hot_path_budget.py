"""Work budgets of the hot path, as counts (never times).

On a small fixed-seed TPC-C Chiller sim run three results must be
computed once, not once per use: a key's ``stable_hash``, a message's
payload size, and a procedure's static shape.  The budgets sit well
under what recomputing per use costs (81 hash evaluations per commit,
one walk per *recipient*, one ``_alias_map`` per op instance per
transaction), so a change that reintroduces the per-use work fails
here without anyone having to read a profile.
"""

import pytest

import repro._util as util
import repro.sim.network as network
import repro.txn.executor as executor
from repro.analysis import StoredProcedure
from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run

HASHES_PER_COMMIT = 16
ALIAS_MAPS_PER_RUN = 1_000


@pytest.fixture(scope="module")
def counted_run():
    """Run the cell once with counters on the three pure functions."""
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=500.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    counts = {"hashes": 0, "alias_maps": 0}
    walked = []                 # every object whose size was walked
    depth = [0]
    patch = pytest.MonkeyPatch()
    stable_hash, walk = util.stable_hash, network.approx_payload_bytes
    alias_map = StoredProcedure._alias_map

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
        run = make_tpcc_run("chiller", config)      # load is not counted
        patch.setattr(util, "stable_hash", counting_hash)
        patch.setattr(network, "approx_payload_bytes", counting_walk)
        patch.setattr(executor, "approx_payload_bytes", counting_walk)
        patch.setattr(StoredProcedure, "_alias_map", counting_alias_map)
        result = run.run()
    finally:
        patch.undo()
    return run, result, counts, walked


def test_each_key_is_hashed_about_once(counted_run):
    _run, result, counts, _walked = counted_run
    commits = result.metrics.commits
    assert commits > 300
    assert 0 < counts["hashes"] <= HASHES_PER_COMMIT * commits


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
