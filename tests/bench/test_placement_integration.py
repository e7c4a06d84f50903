"""Placement wiring through the harness: static bit-identity and the
adaptive observe->plan->migrate loop end to end on the simulator."""

import dataclasses
import importlib.util
from pathlib import Path

from repro.bench import RunConfig
from repro.bench.setups import build_run
from repro.partitioning import HashScheme
from repro.placement import PlacementSpec
from repro.storage import Catalog
from repro.workloads import ycsb
from repro.workloads.ycsb import DriftingYcsbWorkload, YcsbWorkload

import pytest


def small_config(**overrides) -> RunConfig:
    defaults = dict(n_partitions=2, concurrent_per_engine=2,
                    horizon_us=2_500.0, warmup_us=250.0, seed=5,
                    n_replicas=1, route_by_data=True)
    defaults.update(overrides)
    return RunConfig(**defaults)


def run_ycsb(config: RunConfig):
    workload = YcsbWorkload(n_keys=400, reads_per_txn=3, writes_per_txn=2,
                            zipf_exponent=0.8)
    return build_run(workload,
                     Catalog(config.n_partitions,
                             HashScheme(config.n_partitions)),
                     config).run()


def outcome_trace(result):
    # txn ids come from a process-global counter, so consecutive runs
    # shift them uniformly; everything behavioral must match exactly
    return [(o.proc, o.committed, o.reason, o.start, o.end, o.partitions)
            for o in result.metrics.outcomes]


def test_placement_static_is_bit_identical_to_unset():
    baseline = run_ycsb(small_config(placement=None))
    explicit = run_ycsb(small_config(placement="static"))
    assert outcome_trace(explicit) == outcome_trace(baseline)
    assert (explicit.metrics.events_processed
            == baseline.metrics.events_processed)
    assert explicit.metrics.placement_stats is None
    assert baseline.metrics.outcomes[0].read_set == ()  # footprints off


def test_adaptive_run_consolidates_drifting_hot_groups():
    """End-to-end on sim: telemetry observes the load, the controller
    plans, migrations apply, and routing epochs advance."""
    config = small_config(
        horizon_us=6_000.0,
        placement=PlacementSpec(kind="adaptive", epoch_us=800.0,
                                max_moves_per_epoch=16, min_gain=4.0,
                                min_window_commits=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ycsb, "DRIFT_READS_PER_TXN", 3)
        workload = DriftingYcsbWorkload(n_groups=24, group_size=6,
                                        zipf_exponent=1.3)
    run = build_run(workload,
                    Catalog(config.n_partitions,
                            HashScheme(config.n_partitions)), config)
    db = run.database
    workload.bind_clock(lambda: db.cluster.sim.now)
    result = run.run()

    stats = result.metrics.placement_stats
    assert stats is not None and stats.placement == "adaptive"
    assert stats.epochs >= 3
    assert stats.moves_applied > 0, \
        "hash-scattered hot groups must trigger consolidation"
    assert db.placement_epoch() >= 1
    assert stats.commits_observed > 0
    # footprints were recorded for telemetry
    committed = [o for o in result.metrics.outcomes if o.committed]
    assert committed and committed[0].write_set

    summary = result.perf_summary()
    assert summary["placement"]["moves_applied"] == stats.moves_applied
    assert "bytes_by_phase" in summary["traffic"]
    assert "migrate" in summary["traffic"]["bytes_by_phase"]


def test_perf_summary_reports_traffic_phases_on_static_runs():
    result = run_ycsb(small_config())
    summary = result.perf_summary()
    phases = summary["traffic"]["bytes_by_phase"]
    assert phases.get("lock", 0) > 0 and phases.get("commit", 0) > 0
    per_server = summary["traffic"]["bytes_by_server_phase"]
    assert len(per_server) == 2  # both engines issued wire traffic
    assert "placement" not in summary  # static runs stay quiet


def test_unknown_placement_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown placement"):
        run_ycsb(small_config(placement="sideways"))


def test_placement_spec_rides_through_config_replace():
    spec = PlacementSpec(kind="adaptive", epoch_us=123.0)
    config = dataclasses.replace(small_config(), placement=spec)
    assert config.placement.epoch_us == 123.0


def test_adaptive_placement_recovers_half_the_drift_gap():
    """The drift figure's headline, on the cell the figure script
    defines (loaded by path so it is defined once): the mid-run hot-set
    shift degrades the trained static layout, and adaptive placement
    wins back at least half of the lost committed txns/s."""
    script = (Path(__file__).parents[2] / "benchmarks"
              / "bench_placement_drift.py")
    spec = importlib.util.spec_from_file_location(script.stem, script)
    drift = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drift)

    # --quick is the smallest shape that holds: shorter horizons end
    # before enough migration epochs have run
    rows = drift.drift_rows(quick=True)
    static, adaptive = rows
    assert static["post_throughput"] < static["pre_throughput"]
    # the static arm grows no controller (no placement_stats: 0 epochs)
    assert static["epochs"] == 0 and static["moves_applied"] == 0
    assert adaptive["moves_applied"] > 0
    assert drift.recovery_fraction(rows) >= 0.5
