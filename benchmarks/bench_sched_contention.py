"""YCSB hot-key scheduler sweep: conflict-class batching vs blind retry.

The scheduling subsystem's acceptance figure.  A skewed YCSB workload
(zipf-ranked keys, every transaction read-modify-writes several) is
driven through NO_WAIT 2PL and OCC with scheduling off (`fifo`, the
historical raw retry loop bit-for-bit) and on (`conflict`): the
conflict scheduler fingerprints each request's estimated write set,
serializes admissions that share a hot record, and sheds hopeless
queues — so the simulated CPU and network stop burning on doomed lock
acquisitions.  Reported per cell: committed txns/sec, abort rate,
wasted attempts (contention aborts — paid for, nothing to show), and
the scheduler's own counters (queueing delay, deferrals, sheds).

CLI (the EXPERIMENTS.md figure; CI runs `--quick` on sim and mp)::

    PYTHONPATH=src python benchmarks/bench_sched_contention.py
    PYTHONPATH=src python benchmarks/bench_sched_contention.py --quick
    PYTHONPATH=src python benchmarks/bench_sched_contention.py --quick --backend mp

pytest-benchmark cells (regression-tracked in BENCH_BASELINE.json via
``check_perf_regression.py``) assert the headline result: at zipf
θ ≥ 0.9 under NO_WAIT 2PL, `conflict` commits measurably more
transactions than `fifo` while wasting less work.
"""

from __future__ import annotations

import sys

from repro.bench import RunConfig, install_summary_json
from repro.bench.setups import build_run
from repro.partitioning import HashScheme
from repro.storage import Catalog
from repro.workloads.ycsb import YcsbWorkload

THETAS = (0.6, 0.9, 1.2)
SCHEDULERS = ("fifo", "conflict")
EXECUTORS = ("2pl", "occ")


def sched_config(quick: bool = False, backend: str = "sim",
                 scheduler: str = "fifo", seed: int = 11) -> RunConfig:
    return RunConfig(n_partitions=4, concurrent_per_engine=8,
                     horizon_us=4_000.0 if quick else 10_000.0,
                     warmup_us=500.0 if quick else 1_500.0,
                     seed=seed, n_replicas=1, route_by_data=True,
                     scheduler=scheduler, backend=backend)


def run_cell(theta: float, scheduler: str, executor_name: str = "2pl",
             quick: bool = False, backend: str = "sim",
             seed: int = 11):
    config = sched_config(quick, backend, scheduler, seed)
    workload = YcsbWorkload(n_keys=1_200, reads_per_txn=4,
                            writes_per_txn=4, zipf_exponent=theta)
    catalog = Catalog(config.n_partitions, HashScheme(config.n_partitions))
    return build_run(workload, catalog, config, executor_name).run()


def sweep_rows(thetas=THETAS, schedulers=SCHEDULERS, executors=EXECUTORS,
               quick: bool = False, backend: str = "sim") -> list[dict]:
    rows = []
    for theta in thetas:
        for executor_name in executors:
            row: dict = {"theta": theta, "executor": executor_name}
            for scheduler in schedulers:
                result = run_cell(theta, scheduler, executor_name,
                                  quick, backend)
                metrics = result.metrics
                sched = metrics.scheduler_summary()
                prefix = scheduler
                row[f"{prefix}_throughput"] = result.throughput
                row[f"{prefix}_abort_rate"] = metrics.abort_rate()
                row[f"{prefix}_commits"] = metrics.commits
                row[f"{prefix}_wasted"] = metrics.wasted_attempts()
                row[f"{prefix}_sheds"] = sched.sheds
                row[f"{prefix}_queue_us"] = sched.mean_queueing_delay_us()
                row[f"{prefix}_widenings"] = sched.window_widenings
            rows.append(row)
    return rows


def print_sweep(rows: list[dict]) -> None:
    print("\n== Scheduler sweep: YCSB hot-key (throughput K txns/s | "
          "abort rate | wasted attempts) ==")
    print(f"{'theta':>5} {'exec':>5} "
          f"{'fifo':>20} {'conflict':>20} "
          f"{'tput delta':>10} {'queue us':>9} {'sheds':>6}")
    for row in rows:
        fifo = (f"{row['fifo_throughput'] / 1e3:6.0f}K "
                f"{row['fifo_abort_rate']:5.2f} {row['fifo_wasted']:6d}")
        conf = (f"{row['conflict_throughput'] / 1e3:6.0f}K "
                f"{row['conflict_abort_rate']:5.2f} "
                f"{row['conflict_wasted']:6d}")
        delta = (row["conflict_throughput"] / row["fifo_throughput"] - 1.0
                 if row["fifo_throughput"] > 0 else 0.0)
        print(f"{row['theta']:>5.2f} {row['executor']:>5} {fifo:>20} "
              f"{conf:>20} {delta:>+9.1%} "
              f"{row['conflict_queue_us']:>9.1f} "
              f"{row['conflict_sheds']:>6d}")


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
    thetas = (0.9, 1.2) if quick else THETAS
    executors = ("2pl",) if quick else EXECUTORS
    try:
        print_sweep(sweep_rows(thetas=thetas, executors=executors,
                               quick=quick, backend=backend))
    finally:
        flush_summaries()


# -- pytest-benchmark cells (perf-tracked in BENCH_BASELINE.json) -------------

def test_conflict_scheduler_beats_fifo_on_hot_keys(benchmark):
    """The acceptance cell: zipf θ=0.9 (and above), NO_WAIT 2PL —
    conflict-class scheduling must commit more per simulated second
    than the blind retry loop, with less wasted work."""
    fifo = run_cell(0.9, "fifo")
    conflict = benchmark.pedantic(run_cell, args=(0.9, "conflict"),
                                  rounds=1, iterations=1)

    sched = conflict.metrics.scheduler_summary()
    assert sched.scheduler == "conflict"
    assert sched.deferrals > 0, "hot keys should force serialization"
    assert conflict.throughput > fifo.throughput, (
        f"conflict scheduling should beat fifo under hot-key skew: "
        f"{conflict.throughput:.0f} vs {fifo.throughput:.0f} txns/s")
    assert (conflict.metrics.wasted_attempts()
            < fifo.metrics.wasted_attempts()), "less work must be wasted"

    benchmark.extra_info.update({
        "fifo_throughput": round(fifo.throughput),
        "conflict_throughput": round(conflict.throughput),
        "fifo_wasted_attempts": fifo.metrics.wasted_attempts(),
        "conflict_wasted_attempts": conflict.metrics.wasted_attempts(),
        "conflict_mean_queueing_delay_us": round(
            sched.mean_queueing_delay_us(), 3),
        **{f"conflict_{k}": round(v, 3) if isinstance(v, float) else v
           for k, v in conflict.perf_summary().items()
           if not isinstance(v, dict)},
    })


def test_fifo_scheduler_run_reports_hot_path_health(benchmark):
    """The mediated fifo path is the new default dispatch loop; its
    event rate is the regression-tracked hot-path figure."""
    result = benchmark.pedantic(run_cell, args=(0.9, "fifo"),
                                rounds=1, iterations=1)
    assert result.wall_seconds > 0.0
    assert result.metrics.events_per_wall_second() > 0.0
    summary = result.metrics.scheduler_summary()
    assert summary.scheduler == "fifo"
    assert summary.deferrals == 0 and summary.sheds == 0
    benchmark.extra_info.update(
        {k: round(v, 3) if isinstance(v, float) else v
         for k, v in result.perf_summary().items()
         if not isinstance(v, dict)})


if __name__ == "__main__":
    main()
