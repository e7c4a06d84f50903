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

The headline result — after the shift, adaptive placement recovers at
least half of the committed-txns/s gap between the pre-shift rate and
the degraded static rate — is asserted on the ``--quick`` shape in
``tests/bench/test_placement_integration.py``, which loads this file.
"""

from __future__ import annotations

import argparse

from repro.analysis import ProcedureRegistry
from repro.bench import BACKENDS, Run, RunConfig
from repro.bench.harness import (collect_summaries, kilo_digits,
                                 summary_json_parser)
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
                                  seed=TRAIN_SEED):
        stats.record(sample_from_request(registry, request))
    likelihoods = stats.likelihoods_from_txn_rate(
        100_000.0 * n_partitions)
    partitioning = partition_workload(
        stats.samples, likelihoods, n_partitions,
        ChillerPartitionerConfig(eps=0.15, seed=TRAIN_SEED,
                                 keep_all_records=True))
    return HotRecordTable(partitioning.record_assignment)


def build_drift_run(config: RunConfig, quick: bool = False) -> Run:
    """One drift cell.  The workload's clock reads the run's cluster,
    which on mp is each forked worker's own bound copy.

    Both arms build the identical pre-shift-trained layout; only
    ``config.placement`` differs.
    """
    shape = drift_shape(quick)
    workload = DriftingYcsbWorkload(n_groups=N_GROUPS,
                                    group_size=GROUP_SIZE,
                                    zipf_exponent=ZIPF_EXPONENT,
                                    shift_at_us=shape["shift_at_us"])
    hot_table = trained_hot_table(workload, config.n_partitions)
    catalog = Catalog(config.n_partitions,
                      hot_table.live_scheme(HashScheme(config.n_partitions)))
    run = build_run(workload, catalog, config)
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
    digits = kilo_digits(row[f"{when}_throughput"] for row in rows
                         for when in ("pre", "post"))
    for row in rows:
        print(f"{row['placement']:>9} "
              f"{row['pre_throughput'] / 1e3:>9.{digits}f}K "
              f"{row['post_throughput'] / 1e3:>10.{digits}f}K "
              f"{row['moves_applied']:>6d} {row['epochs']:>7d}")
    print(f"gap recovered by adaptive placement: "
          f"{recovery_fraction(rows):.0%}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        allow_abbrev=False, parents=[summary_json_parser()],
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="14 ms horizon instead of 30 ms")
    parser.add_argument("--backend", choices=BACKENDS, default="sim",
                        help="sim (default), or wall-clock aio / mp")
    return parser


def main(argv=None) -> None:
    options = build_parser().parse_args(argv)
    flush_summaries = collect_summaries(options.summary_json)
    if options.backend != "sim":
        print(f"(backend {options.backend}: wall-clock figures — see "
              f"EXPERIMENTS.md; sim figures are the calibrated ones)")
    try:
        print_rows(drift_rows(quick=options.quick, backend=options.backend))
    finally:
        flush_summaries()


if __name__ == "__main__":
    main()
