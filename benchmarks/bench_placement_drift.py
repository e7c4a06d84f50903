"""Workload-drift benchmark: adaptive placement vs a stale layout.

The adaptive-placement subsystem's acceptance figure — and the first
benchmark in the repo where the *workload changes under the system*.
A group-structured YCSB workload (every transaction's keys come from
one zipf-ranked key group) runs over a layout trained offline on the
pre-shift distribution, exactly like Chiller's offline partitioner
would produce.  Mid-run the hot set rotates: previously cold groups
become the traffic, and the trained layout degenerates to scattered,
multi-partition transactions.

``--placement static`` (the paper's offline model) stays degraded for
the rest of the run.  ``--placement adaptive`` closes the loop: access
telemetry feeds the periodic star-graph re-partition, and the
migration executor moves the new hot groups — a bounded top-K budget
per epoch, each move an ordinary locking transaction — until the new
hot set is co-located again and throughput recovers.

CLI (the EXPERIMENTS.md figure; CI runs `--quick` on sim and mp)::

    PYTHONPATH=src python benchmarks/bench_placement_drift.py
    PYTHONPATH=src python benchmarks/bench_placement_drift.py --quick
    PYTHONPATH=src python benchmarks/bench_placement_drift.py --quick --backend mp

The pytest-benchmark cell (regression-tracked in BENCH_BASELINE.json)
asserts the headline result: after the shift, adaptive placement
recovers at least half of the committed-txns/s gap between the
pre-shift rate and the degraded static rate.
"""

from __future__ import annotations

import sys
from functools import partial

from repro.analysis import ProcedureRegistry
from repro.bench import Run, RunConfig, install_summary_json
from repro.bench.setups import build_run
from repro.core import (ChillerPartitionerConfig, HotRecordTable,
                        StatsService, partition_workload,
                        sample_from_request)
from repro.partitioning import HashScheme
from repro.placement import PlacementSpec
from repro.storage import Catalog
from repro.workloads.ycsb import DriftingYcsbWorkload

N_PARTITIONS = 4
N_GROUPS = 96
GROUP_SIZE = 8
ZIPF_EXPONENT = 1.4
"""Head-heavy ranks: the hot head dominates traffic, and the offline
trace barely observes the tail — so the post-shift hot set (drawn
from yesterday's tail) is genuinely unplaced, as in production."""

TRAIN_SAMPLES = 300
TRAIN_SEED = 23


def drift_shape(quick: bool = False) -> dict:
    """The run's time geometry: horizon, shift instant, windows."""
    horizon = 14_000.0 if quick else 30_000.0
    shift = 0.4 * horizon
    return {
        "horizon_us": horizon,
        "shift_at_us": shift,
        "pre_window": (1_500.0, shift),
        # measure well after the shift so the adaptive arm's migration
        # epochs have run; the static arm is flat, so a late window
        # only makes the comparison fairer to it
        "post_window": (shift + 0.3 * (horizon - shift), horizon),
    }


def drift_config(quick: bool = False, backend: str = "sim",
                 placement: str = "static", seed: int = 19) -> RunConfig:
    shape = drift_shape(quick)
    spec: object = placement
    if placement == "adaptive":
        # YCSB footprints are tiny (6 records), so the planner can
        # afford a much larger window than its TPC-C-safe defaults
        spec = PlacementSpec(kind="adaptive",
                             epoch_us=1_000.0 if quick else 1_500.0,
                             max_moves_per_epoch=32,
                             min_window_commits=12,
                             min_gain=6.0,
                             plan_sample_cap=512,
                             plan_record_cap=2_048)
    return RunConfig(n_partitions=N_PARTITIONS, concurrent_per_engine=4,
                     horizon_us=shape["horizon_us"], warmup_us=1_500.0,
                     seed=seed, n_replicas=1, route_by_data=True,
                     backend=backend, placement=spec)


def trained_hot_table(workload: DriftingYcsbWorkload,
                      n_partitions: int) -> HotRecordTable:
    """Train the initial layout offline on the *pre-shift* trace.

    Every observed record's placement is kept (Schism-style full
    table) so the trained layout genuinely co-locates yesterday's hot
    groups; unobserved records fall through to hash.
    """
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    stats = StatsService(sample_rate=1.0, lock_window_us=10.0)
    for request in workload.trace(TRAIN_SAMPLES, n_partitions,
                                  phase="pre", seed=TRAIN_SEED):
        stats.record(sample_from_request(registry, request))
    likelihoods = stats.likelihoods_from_txn_rate(
        100_000.0 * n_partitions)
    partitioning = partition_workload(
        stats.samples, likelihoods, n_partitions,
        ChillerPartitionerConfig(eps=0.15, seed=TRAIN_SEED,
                                 keep_all_records=True))
    return HotRecordTable(partitioning.record_assignment)


def build_drift_run(config: RunConfig, quick: bool = False) -> Run:
    """Module-level (mp-picklable) builder for one drift cell: mp
    workers re-run it whole, because the workload's clock must be bound
    to each process's own cluster.

    Both arms build the identical pre-shift-trained layout; only
    ``config.placement`` differs.
    """
    shape = drift_shape(quick)
    workload = DriftingYcsbWorkload(n_groups=N_GROUPS,
                                    group_size=GROUP_SIZE,
                                    reads_per_txn=4, writes_per_txn=2,
                                    zipf_exponent=ZIPF_EXPONENT,
                                    shift_at_us=shape["shift_at_us"])
    hot_table = trained_hot_table(workload, config.n_partitions)
    catalog = Catalog(config.n_partitions,
                      hot_table.live_scheme(HashScheme(config.n_partitions)))
    run = build_run(workload, catalog, config,
                    rebuild=partial(build_drift_run, config, quick))
    cluster = run.database.cluster
    workload.bind_clock(lambda: cluster.sim.now)
    return run


def run_cell(placement: str, quick: bool = False, backend: str = "sim",
             seed: int = 19):
    config = drift_config(quick, backend, placement, seed)
    return build_drift_run(config, quick=quick).run()


def windowed_throughputs(result, quick: bool = False) -> dict:
    shape = drift_shape(quick)
    metrics = result.metrics
    return {
        "pre": metrics.throughput(*shape["pre_window"]),
        "post": metrics.throughput(*shape["post_window"]),
    }


def drift_rows(quick: bool = False, backend: str = "sim") -> list[dict]:
    rows = []
    for placement in ("static", "adaptive"):
        result = run_cell(placement, quick, backend)
        windows = windowed_throughputs(result, quick)
        placement_stats = result.metrics.placement_stats
        rows.append({
            "placement": placement,
            "pre_throughput": windows["pre"],
            "post_throughput": windows["post"],
            "abort_rate": result.metrics.abort_rate(),
            "moves_applied": (placement_stats.moves_applied
                              if placement_stats else 0),
            "epochs": placement_stats.epochs if placement_stats else 0,
        })
    return rows


def recovery_fraction(rows: list[dict]) -> float:
    """How much of the (pre-shift - degraded-static) gap adaptive wins
    back in the post-shift window."""
    static = next(r for r in rows if r["placement"] == "static")
    adaptive = next(r for r in rows if r["placement"] == "adaptive")
    gap = static["pre_throughput"] - static["post_throughput"]
    if gap <= 0:
        return 1.0  # nothing degraded: nothing to recover
    return (adaptive["post_throughput"]
            - static["post_throughput"]) / gap


def print_rows(rows: list[dict]) -> None:
    print("\n== Placement drift: hot set shifts mid-run "
          "(K committed txns/s) ==")
    print(f"{'placement':>9} {'pre-shift':>10} {'post-shift':>11} "
          f"{'moves':>6} {'epochs':>7}")
    for row in rows:
        print(f"{row['placement']:>9} "
              f"{row['pre_throughput'] / 1e3:>9.0f}K "
              f"{row['post_throughput'] / 1e3:>10.0f}K "
              f"{row['moves_applied']:>6d} {row['epochs']:>7d}")
    print(f"gap recovered by adaptive placement: "
          f"{recovery_fraction(rows):.0%}")


def main(argv=None) -> None:
    args = list(sys.argv[1:] if argv is None else argv)
    args, flush_summaries = install_summary_json(args)
    quick = "--quick" in args
    backend = "sim"
    for i, arg in enumerate(args):
        if arg == "--backend" and i + 1 < len(args):
            backend = args[i + 1]
        elif arg.startswith("--backend="):
            backend = arg.split("=", 1)[1]
    if backend != "sim":
        print(f"(backend {backend}: wall-clock figures — see "
              f"EXPERIMENTS.md; sim figures are the calibrated ones)")
    try:
        print_rows(drift_rows(quick=quick, backend=backend))
    finally:
        flush_summaries()


# -- pytest-benchmark cells (perf-tracked in BENCH_BASELINE.json) -------------

def test_adaptive_placement_recovers_after_drift(benchmark):
    """The acceptance cell: after the mid-run hot-set shift, adaptive
    placement must win back >= 50% of the committed-txns/s gap between
    the pre-shift rate and the degraded static rate."""
    static = run_cell("static")
    adaptive = benchmark.pedantic(run_cell, args=("adaptive",),
                                  rounds=1, iterations=1)

    placement_stats = adaptive.metrics.placement_stats
    assert placement_stats is not None
    assert placement_stats.moves_applied > 0, \
        "the drifted hot set must trigger migrations"
    assert static.metrics.placement_stats is None, \
        "the static arm must not grow a controller"

    rows = []
    for placement, result in (("static", static), ("adaptive", adaptive)):
        windows = windowed_throughputs(result)
        rows.append({"placement": placement,
                     "pre_throughput": windows["pre"],
                     "post_throughput": windows["post"]})
    static_row = rows[0]
    assert static_row["post_throughput"] < static_row["pre_throughput"], \
        "the shift must degrade the trained static layout"
    recovered = recovery_fraction(rows)
    assert recovered >= 0.5, (
        f"adaptive placement must recover >= 50% of the drift gap, "
        f"got {recovered:.0%} "
        f"(static {static_row['pre_throughput']:.0f} -> "
        f"{static_row['post_throughput']:.0f}, adaptive post "
        f"{rows[1]['post_throughput']:.0f} txns/s)")

    benchmark.extra_info.update({
        "static_pre_throughput": round(static_row["pre_throughput"]),
        "static_post_throughput": round(static_row["post_throughput"]),
        "adaptive_post_throughput": round(rows[1]["post_throughput"]),
        "recovered_fraction": round(recovered, 3),
        "moves_applied": placement_stats.moves_applied,
        **{k: round(v, 3) if isinstance(v, float) else v
           for k, v in adaptive.perf_summary().items()
           if not isinstance(v, dict)},
    })


def test_static_drift_run_reports_hot_path_health(benchmark):
    """The static arm doubles as the subsystem's hot-path cell: its
    event rate is regression-tracked like the other benchmarks."""
    result = benchmark.pedantic(run_cell, args=("static",),
                                rounds=1, iterations=1)
    assert result.wall_seconds > 0.0
    assert result.metrics.events_per_wall_second() > 0.0
    assert result.metrics.placement_stats is None
    benchmark.extra_info.update(
        {k: round(v, 3) if isinstance(v, float) else v
         for k, v in result.perf_summary().items()
         if not isinstance(v, dict)})


if __name__ == "__main__":
    main()
