"""Open-loop saturation sweep: the latency-vs-offered-load knee figure.

The traffic subsystem's acceptance figure.  A YCSB workload is driven
*open-loop* (:mod:`repro.traffic`): requests enter on a seeded Poisson
schedule at a configured offered load whether or not the system keeps
up, and latency is measured from the **scheduled** arrival — so
queueing delay under overload lands in the percentiles instead of
being absorbed by a polite closed-loop generator (coordinated
omission).  Swept: offered load × {fifo, conflict} scheduler ×
{static, adaptive} placement.  Below the saturation knee p50/p99 sit
near the service time; past it they grow without bound — the shape the
closed-loop figures structurally cannot show.

A second cell rides the ``tenants`` mix past the knee (1.5× the knee
load) and shows the point of deadline-aware admission
(:class:`repro.sched.DeadlineAdmission`): shedding the least valuable
work first keeps the high-priority tenant's SLO attainment ≥ 90% while
admit-everything drowns every tenant equally.

CLI (the EXPERIMENTS.md figure; CI runs ``--quick`` on sim and mp)::

    PYTHONPATH=src python benchmarks/bench_open_loop.py
    PYTHONPATH=src python benchmarks/bench_open_loop.py --quick
    PYTHONPATH=src python benchmarks/bench_open_loop.py --quick --backend mp

The knee shape and the SLO protection result are asserted on a
smaller two-partition cell in ``tests/traffic/test_open_loop.py``; the
exact percentiles are pinned by the open-loop digests of
``tests/bench/test_golden_runs.py``.
"""

from __future__ import annotations

import argparse

from repro.bench import BACKENDS, RunConfig
from repro.bench.harness import collect_summaries, summary_json_parser
from repro.bench.setups import make_ycsb_run
from repro.traffic import ArrivalSpec

OFFERED_LOADS = (100_000.0, 200_000.0, 400_000.0, 800_000.0, 1_200_000.0)
QUICK_LOADS = (100_000.0, 400_000.0, 1_200_000.0)
SCHEDULERS = ("fifo", "conflict")
PLACEMENTS = (None, "adaptive")
DEADLINE_US = 4_000.0
KNEE_LOAD = 600_000.0
"""Operational knee of this YCSB cell on the sim backend: the lowest
offered load whose p99 exceeds twice the low-load p99 lies between
400k/s (p99 within 2x) and 800k/s (well past 2x)."""

ADMISSION_LOAD = 1.5 * KNEE_LOAD
"""The SLO-protection cell runs at 1.5x the knee."""


def open_loop_config(offered_load: float, quick: bool = False,
                     backend: str = "sim", scheduler: str | None = None,
                     placement: str | None = None,
                     process: str = "poisson",
                     admission: str = "none",
                     deadline_us: float = DEADLINE_US,
                     seed: int = 13) -> RunConfig:
    return RunConfig(n_partitions=4,
                     horizon_us=8_000.0 if quick else 30_000.0,
                     warmup_us=1_000.0 if quick else 2_000.0,
                     seed=seed, n_replicas=1,
                     scheduler=scheduler, placement=placement,
                     backend=backend,
                     arrivals=ArrivalSpec(process=process,
                                          offered_load=offered_load,
                                          deadline_us=deadline_us,
                                          admission=admission))


def run_cell(offered_load: float, quick: bool = False,
             backend: str = "sim", scheduler: str | None = None,
             placement: str | None = None, process: str = "poisson",
             admission: str = "none",
             deadline_us: float = DEADLINE_US, seed: int = 13):
    config = open_loop_config(offered_load, quick, backend, scheduler,
                              placement, process, admission,
                              deadline_us, seed)
    return make_ycsb_run("2pl", config).run()


def sweep_rows(loads=OFFERED_LOADS, schedulers=SCHEDULERS,
               placements=PLACEMENTS, quick: bool = False,
               backend: str = "sim") -> list[dict]:
    rows = []
    for scheduler in schedulers:
        for placement in placements:
            for offered in loads:
                result = run_cell(offered, quick, backend, scheduler,
                                  placement)
                latency = result.metrics.open_loop.overall().summary()
                rows.append({
                    "scheduler": scheduler,
                    "placement": placement or "static",
                    "offered": offered,
                    "throughput": result.throughput,
                    "scheduled": result.metrics.open_loop.scheduled,
                    "shed": result.metrics.open_loop.shed,
                    "p50_us": latency["p50_us"],
                    "p99_us": latency["p99_us"],
                    "p999_us": latency["p999_us"],
                })
    return rows


def find_knee(rows: list[dict], factor: float = 2.0) -> float | None:
    """Lowest offered load whose p99 exceeds ``factor`` x the p99 at
    the lowest load of the same (scheduler, placement) series."""
    base = rows[0]["p99_us"]
    for row in rows:
        if row["p99_us"] > factor * base:
            return row["offered"]
    return None


def print_sweep(rows: list[dict]) -> None:
    print("\n== Open-loop saturation: latency vs offered load "
          "(p50/p99/p999 us from scheduled arrival) ==")
    print(f"{'sched':>8} {'placement':>9} {'offered/s':>10} "
          f"{'tput/s':>9} {'p50':>9} {'p99':>10} {'p999':>10}")
    series: dict[tuple, list[dict]] = {}
    for row in rows:
        series.setdefault((row["scheduler"], row["placement"]),
                          []).append(row)
    for (scheduler, placement), cells in series.items():
        for row in cells:
            print(f"{scheduler:>8} {placement:>9} {row['offered']:>10.0f} "
                  f"{row['throughput']:>9.0f} {row['p50_us']:>9.1f} "
                  f"{row['p99_us']:>10.1f} {row['p999_us']:>10.1f}")
        knee = find_knee(cells)
        print(f"{'':>8} {'':>9} knee (p99 > 2x base): "
              + (f"{knee:.0f}/s" if knee else "past sweep range"))


def admission_rows(quick: bool = False, backend: str = "sim",
                   offered: float = ADMISSION_LOAD) -> list[dict]:
    """Gold/standard SLO attainment at 1.5x knee, with and without
    deadline-aware admission."""
    rows = []
    for admission in ("none", "deadline"):
        result = run_cell(offered, quick, backend, process="tenants",
                          admission=admission)
        summary = result.metrics.open_loop.summary()
        for name, tenant in summary["tenants"].items():
            rows.append({"admission": admission, "tenant": name,
                         **tenant})
    return rows


def print_admission(rows: list[dict]) -> None:
    print(f"\n== Deadline admission at 1.5x knee "
          f"({ADMISSION_LOAD:.0f}/s, deadline {DEADLINE_US:.0f}us) ==")
    print(f"{'admission':>9} {'tenant':>9} {'scheduled':>9} {'shed':>7} "
          f"{'committed':>9} {'SLO':>6} {'p99 us':>10}")
    for row in rows:
        print(f"{row['admission']:>9} {row['tenant']:>9} "
              f"{row['scheduled']:>9} {row['shed']:>7} "
              f"{row['committed']:>9} {row['slo_attainment']:>6.3f} "
              f"{row['p99_us']:>10.1f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        allow_abbrev=False, parents=[summary_json_parser()],
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="three loads, fifo + static only, 8 ms horizon")
    parser.add_argument("--backend", choices=BACKENDS, default="sim",
                        help="sim (default), or wall-clock aio / mp")
    return parser


def main(argv=None) -> None:
    options = build_parser().parse_args(argv)
    quick, backend = options.quick, options.backend
    flush_summaries = collect_summaries(options.summary_json)
    if backend != "sim":
        print(f"(backend {backend}: wall-clock figures — the schedule "
              f"is identical but service times are this machine's; sim "
              f"figures are the calibrated ones)")
    loads = QUICK_LOADS if quick else OFFERED_LOADS
    schedulers = ("fifo",) if quick else SCHEDULERS
    placements = (None,) if quick else PLACEMENTS
    try:
        print_sweep(sweep_rows(loads=loads, schedulers=schedulers,
                               placements=placements, quick=quick,
                               backend=backend))
        print_admission(admission_rows(quick=quick, backend=backend))
    finally:
        flush_summaries()


if __name__ == "__main__":
    main()
