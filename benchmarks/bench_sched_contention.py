"""YCSB hot-key scheduler sweep: conflict-class batching vs blind retry.

The scheduling subsystem's acceptance figure.  A skewed YCSB workload
(zipf-ranked keys, every transaction read-modify-writes several) is
driven through NO_WAIT 2PL and OCC with scheduling off (`fifo`, the
historical raw retry loop bit-for-bit) and on (`conflict`): the
conflict scheduler fingerprints each request's estimated write set and
serializes admissions that share a hot record — so the simulated CPU
and network stop burning on doomed lock acquisitions.  Reported per
cell: committed txns/sec, abort rate, wasted attempts (contention
aborts — paid for, nothing to show), and the scheduler's own counters
(queueing delay, deferrals, sheds).

This closed loop never sheds: with 8 workers per engine a class queue
holds at most 7 waiters, under the cap of
``repro.sched.conflict.MAX_QUEUE_PER_CLASS`` (16).  Shedding is an
open-loop effect past the knee: at 150k arrivals/s the hot open-loop
cell (``benchmarks/e2e``'s ``ycsb_hot_open_sim``) sheds arrivals both
as ``class_overload`` and, far more often, as ``deadline_hopeless``
(EXPERIMENTS.md, "Cooldown ablation").

CLI (the EXPERIMENTS.md figure; CI runs `--quick` on sim and mp)::

    PYTHONPATH=src python benchmarks/bench_sched_contention.py
    PYTHONPATH=src python benchmarks/bench_sched_contention.py --quick
    PYTHONPATH=src python benchmarks/bench_sched_contention.py --quick --backend mp

The headline result — under hot-key skew and NO_WAIT 2PL, `conflict`
commits more transactions than `fifo` while wasting less work — is
asserted on a smaller cell (θ = 1.1) in
``tests/bench/test_sched_integration.py``.
"""

from __future__ import annotations

import argparse

from repro.bench import BACKENDS, RunConfig
from repro.bench.harness import (collect_summaries, kilo_digits,
                                 summary_json_parser)
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
    digits = kilo_digits(row[f"{name}_throughput"] for row in rows
                         for name in ("fifo", "conflict"))
    for row in rows:
        fifo = (f"{row['fifo_throughput'] / 1e3:6.{digits}f}K "
                f"{row['fifo_abort_rate']:5.2f} {row['fifo_wasted']:6d}")
        conf = (f"{row['conflict_throughput'] / 1e3:6.{digits}f}K "
                f"{row['conflict_abort_rate']:5.2f} "
                f"{row['conflict_wasted']:6d}")
        delta = (row["conflict_throughput"] / row["fifo_throughput"] - 1.0
                 if row["fifo_throughput"] > 0 else 0.0)
        print(f"{row['theta']:>5.2f} {row['executor']:>5} {fifo:>20} "
              f"{conf:>20} {delta:>+9.1%} "
              f"{row['conflict_queue_us']:>9.1f} "
              f"{row['conflict_sheds']:>6d}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        allow_abbrev=False, parents=[summary_json_parser()],
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="θ ∈ {0.9, 1.2}, 2PL only, short horizon")
    parser.add_argument("--backend", choices=BACKENDS, default="sim",
                        help="sim (default), or wall-clock aio / mp")
    return parser


def main(argv=None) -> None:
    options = build_parser().parse_args(argv)
    quick, backend = options.quick, options.backend
    flush_summaries = collect_summaries(options.summary_json)
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


if __name__ == "__main__":
    main()
