"""The stats surface, pinned whole: names, not values.

Recorded on the commit *before* the stats classes' hand-written
``merge_from`` / ``timeline_snapshot`` / ``summary`` code became one
fold over field declarations, so it holds that refactor (and the next
counter anybody adds) to the schema every consumer reads: the recursive
key tree of ``perf_summary()``, the counter / gauge / tenant-counter
names the timeline emits, and the ``# TYPE`` lines of
``to_prometheus()``.  Three tiny sim runs between them turn on the
conflict scheduler, open-loop tenants, tracing, the group-commit WAL,
adaptive placement and the metrics timeline.  A change that means to
move the schema re-records ``stats_surface.json`` and says why.
"""

import json
from pathlib import Path

import pytest

from repro.bench import RunConfig
from repro.bench.setups import build_run, make_ycsb_run
from repro.obs import to_prometheus
from repro.partitioning import HashScheme
from repro.placement import PlacementSpec
from repro.sched import conflict
from repro.storage import Catalog
from repro.traffic import ArrivalSpec
from repro.workloads import ycsb
from repro.workloads.ycsb import DriftingYcsbWorkload, YcsbWorkload

GOLDEN = Path(__file__).with_name("stats_surface.json")


def open_loop_traced_run(tmp_path):
    """Multi-tenant arrivals past the knee: sheds at the front door and
    in the conflict scheduler (under :data:`TWO_WAITERS`), SLO misses,
    spans and exemplars."""
    config = RunConfig(
        n_partitions=2, horizon_us=3_000.0, warmup_us=300.0, seed=11,
        scheduler="conflict", trace=True, metrics_interval=500.0,
        arrivals=ArrivalSpec(process="tenants", offered_load=400_000.0,
                             deadline_us=400.0, admission="deadline"))
    workload = YcsbWorkload(n_keys=100, reads_per_txn=3, writes_per_txn=3,
                            zipf_exponent=0.9)
    return make_ycsb_run("2pl", config, workload=workload)


def group_wal_run(tmp_path):
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=2_000.0, warmup_us=200.0, seed=11,
                       wal="group", wal_group_size=8,
                       wal_dir=str(tmp_path), metrics_interval=500.0)
    workload = YcsbWorkload(n_keys=2000, reads_per_txn=8, writes_per_txn=2)
    return make_ycsb_run("2pl", config, workload=workload)


def adaptive_placement_run(tmp_path):
    config = RunConfig(
        n_partitions=2, concurrent_per_engine=2, horizon_us=6_000.0,
        warmup_us=250.0, seed=5, n_replicas=1, route_by_data=True,
        metrics_interval=1_000.0,
        placement=PlacementSpec(kind="adaptive", epoch_us=800.0,
                                max_moves_per_epoch=16, min_gain=4.0,
                                min_window_commits=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ycsb, "DRIFT_READS_PER_TXN", 3)
        workload = DriftingYcsbWorkload(n_groups=24, group_size=6,
                                        zipf_exponent=1.3)
    run = build_run(workload, Catalog(2, HashScheme(2)), config)
    workload.bind_clock(lambda: run.database.cluster.sim.now)
    return run


TWO_WAITERS = 2
"""The conflict scheduler's per-class queue cap in these runs, so a
tiny run sheds."""

RUNS = {"open_loop_traced": open_loop_traced_run,
        "group_wal": group_wal_run,
        "adaptive_placement": adaptive_placement_run}


def key_tree(value):
    """Keys all the way down; a list contributes the union of its
    items' trees; every leaf is None."""
    if isinstance(value, dict):
        return {str(key): key_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        union = {}
        for item in value:
            tree = key_tree(item)
            if isinstance(tree, dict):
                union.update(tree)
        return [union] if union else None
    return None


def surface(result) -> dict:
    timeline = result.metrics.timeline
    rows = timeline.rows()
    exposition = to_prometheus(timeline, timeline.health)
    return {
        "perf_summary": key_tree(result.perf_summary()),
        "counters": sorted({name for row in rows for name in row.counters}),
        "gauges": sorted({name for row in rows for name in row.gauges}),
        "tenant_counters": sorted({name for row in rows
                                   for book in row.tenants.values()
                                   for name in book}),
        "prometheus_types": [line for line in exposition.splitlines()
                             if line.startswith("# TYPE")],
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stats_surface_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", TWO_WAITERS)
    got = surface(RUNS[name](tmp_path).run())
    want = json.loads(GOLDEN.read_text())[name]
    # through JSON so both sides are plain lists / dicts / None
    assert json.loads(json.dumps(got)) == want


if __name__ == "__main__":  # re-record: PYTHONPATH=src python <this file>
    import tempfile
    conflict.MAX_QUEUE_PER_CLASS = TWO_WAITERS
    recorded = {}
    for name, build in sorted(RUNS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[name] = surface(build(Path(scratch)).run())
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
