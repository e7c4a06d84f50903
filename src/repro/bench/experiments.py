"""Parameter sweeps regenerating every table and figure of the paper.

Each ``figN_rows`` function returns plain dict rows (so tests can assert
shapes) and has a printer producing the same series the paper plots.
Run from the command line::

    python -m repro.bench.experiments fig7 fig8 fig9a fig9b fig9c fig10
    python -m repro.bench.experiments lookup cost reorder minweight
    python -m repro.bench.experiments all --quick   # everything, shrunk
    python -m repro.bench.experiments fig9a --quick --backend mp --workers 2
    python -m repro.bench.experiments fig9a --quick --backend mp \\
        --wal group --chaos-kill 1 --chaos-after 0
    python -m repro.bench.experiments fig9a --arrivals tenants \\
        --offered-load 1200000 --admission deadline
    python -m repro.bench.experiments fig9a --quick --trace \\
        --trace-out /tmp/fig9a.json --summary-json /tmp/s.json
    python -m repro.bench.experiments fig9a --quick --backend mp \\
        --metrics-interval 50000 --metrics-port 9100

Every sweep function takes one ``overrides`` mapping of ``RunConfig``
field -> value, applied on top of each cell's own configuration; the CLI
builds that mapping straight from its flags (each option's ``dest`` *is*
the field it sets), so a flag reaches every cell of every figure and
ablation.  Unknown flags, abbreviations and figure names exit 2; the
flag table at the end of this docstring is the parser's own ``--help``.

Unset, every flag leaves the sweep on the simulator, closed-loop, with
the WAL, tracing and the timeline off — bit-identical to the historical
output; ``--scheduler fifo`` and ``--placement static`` are too.
``--metrics-interval`` is simulated µs on sim, wall-clock µs on aio/mp.
Open-loop throughput is NOT comparable to closed-loop figures
(EXPERIMENTS.md, "Open-loop traffic"), and aio/mp numbers measure what
this machine sustains, not the modeled RDMA cluster (EXPERIMENTS.md on
reading them; ARCHITECTURE.md "Durability & recovery" for the WAL and
chaos flags).

Absolute throughput differs from the paper (their 8-node InfiniBand
testbed vs our discrete-event simulator); the *shapes* — orderings,
scaling trends, crossovers — are the reproduction target (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import textwrap
from typing import Iterable, Mapping, Sequence

from ..workloads.instacart import InstacartWorkload
from ..workloads.tpcc import TpccScale, TpccWorkload
from ..placement import PLACEMENTS
from ..sched import SCHEDULERS
from ..storage.wal import WAL_MODES
from ..traffic import ADMISSIONS, ARRIVAL_PROCESSES, ArrivalSpec
from .harness import (BACKENDS, RunConfig, collect_summaries, kilo_digits,
                      summary_json_parser)
from .setups import (build_instacart_layout, build_instacart_setup,
                     make_instacart_run, make_tpcc_run)

INSTACART_LAYOUTS = ("hashing", "schism", "chiller")
TPCC_EXECUTORS = ("2pl", "occ", "chiller")


Overrides = Mapping[str, object]
"""``RunConfig`` field -> value, applied on top of a sweep's own cell
configuration (what the CLI's flags become; see :func:`main`)."""

WALLCLOCK_QUICK_HORIZON_US = 200_000.0
"""A ``--quick`` figure cell's horizon on aio or mp, where it is real
time; the warmup is a tenth of it.  The simulated cells' few ms end
before a fleet of freshly forked workers commits much: at 5 ms,
``fig9a --quick --backend mp`` printed 0.00 in most cells."""

WALLCLOCK_HORIZON_US = 1_000_000.0
"""The same without ``--quick``."""


# -- Section 7.2: Instacart (Figs. 7 & 8, lookup size, partitioner cost) ----

def instacart_config(n_partitions: int, quick: bool = False,
                     seed: int = 2,
                     overrides: Overrides | None = None) -> RunConfig:
    overrides = overrides or {}
    if overrides.get("backend", "sim") == "sim":
        horizon, warmup = (4_000.0, 500.0) if quick else (12_000.0, 2_000.0)
    else:
        horizon = WALLCLOCK_QUICK_HORIZON_US if quick else WALLCLOCK_HORIZON_US
        warmup = horizon / 10
    cell = dict(n_partitions=n_partitions, concurrent_per_engine=4,
                horizon_us=horizon, warmup_us=warmup,
                seed=seed, n_replicas=1,
                # open-loop arrivals pin each request to its scheduled
                # home; data-affinity routing is a closed-loop worker
                # concern (see repro.traffic)
                route_by_data=overrides.get("arrivals") is None)
    return RunConfig(**{**cell, **overrides})


def instacart_sweep(partitions: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                    n_train: int = 3000, quick: bool = False,
                    seed: int = 2,
                    layouts: Sequence[str] = INSTACART_LAYOUTS,
                    workload_factory=InstacartWorkload,
                    overrides: Overrides | None = None) -> list[dict]:
    """One row per partition count with every layout's metrics.

    Feeds Fig. 7 (throughput), Fig. 8 (distributed ratio), the lookup
    table comparison, and the partitioner cost comparison.
    ``workload_factory`` lets scaled-down callers shrink the catalog so
    the training trace still covers it (Schism needs coverage to show
    its locality advantage).
    """
    rows = []
    for k in partitions:
        workload = workload_factory()
        setup = build_instacart_setup(k, n_train=n_train,
                                      workload=workload, seed=seed)
        row: dict = {"partitions": k}
        for name in layouts:
            layout = build_instacart_layout(setup, name, seed=seed)
            run = make_instacart_run(
                setup, layout, instacart_config(k, quick, seed, overrides))
            result = run.run()
            metrics = result.metrics
            row[f"{name}_throughput"] = result.throughput
            row[f"{name}_distributed"] = metrics.distributed_ratio()
            row[f"{name}_abort_rate"] = metrics.abort_rate()
            row[f"{name}_lookup"] = layout.lookup_table_size
            row[f"{name}_edges"] = layout.graph_edges
            row[f"{name}_train_s"] = layout.partition_seconds
        rows.append(row)
    return rows


def print_fig7(rows: list[dict]) -> None:
    print("\n== Fig. 7: throughput (K txns/sec) vs number of partitions ==")
    print(f"{'parts':>5} " + "".join(f"{n:>12}" for n in INSTACART_LAYOUTS))
    digits = kilo_digits(row[f"{n}_throughput"] for row in rows
                         for n in INSTACART_LAYOUTS)
    for row in rows:
        cells = "".join(f"{row[f'{n}_throughput'] / 1e3:>12.{digits}f}"
                        for n in INSTACART_LAYOUTS)
        print(f"{row['partitions']:>5} {cells}")


def print_fig8(rows: list[dict]) -> None:
    print("\n== Fig. 8: ratio of distributed transactions ==")
    print(f"{'parts':>5} " + "".join(f"{n:>12}" for n in INSTACART_LAYOUTS))
    for row in rows:
        cells = "".join(f"{row[f'{n}_distributed']:>12.2f}"
                        for n in INSTACART_LAYOUTS)
        print(f"{row['partitions']:>5} {cells}")


def print_lookup(rows: list[dict]) -> None:
    print("\n== Section 7.2.2: lookup table size (entries) ==")
    print(f"{'parts':>5} {'schism':>10} {'chiller':>10} {'ratio':>8}")
    for row in rows:
        schism = row["schism_lookup"]
        chiller = max(1, row["chiller_lookup"])
        print(f"{row['partitions']:>5} {schism:>10} "
              f"{row['chiller_lookup']:>10} {schism / chiller:>8.1f}x")


def print_cost(rows: list[dict]) -> None:
    print("\n== Section 7.2.2: graph size and partitioning cost ==")
    print(f"{'parts':>5} {'schism edges':>13} {'star edges':>11} "
          f"{'schism s':>9} {'chiller s':>10} {'speedup':>8}")
    for row in rows:
        speed = row["schism_train_s"] / max(1e-9, row["chiller_train_s"])
        print(f"{row['partitions']:>5} {row['schism_edges']:>13} "
              f"{row['chiller_edges']:>11} {row['schism_train_s']:>9.2f} "
              f"{row['chiller_train_s']:>10.2f} {speed:>8.1f}x")


# -- Section 7.3: TPC-C concurrency sweep (Figs. 9a, 9b, 9c) ---------------

def tpcc_config(n_partitions: int, concurrent: int, quick: bool = False,
                seed: int = 3,
                overrides: Overrides | None = None) -> RunConfig:
    overrides = overrides or {}
    if overrides.get("backend", "sim") == "sim":
        horizon, warmup = (5_000.0, 500.0) if quick else (15_000.0, 2_000.0)
    else:
        horizon = WALLCLOCK_QUICK_HORIZON_US if quick else WALLCLOCK_HORIZON_US
        warmup = horizon / 10
    cell = dict(n_partitions=n_partitions, concurrent_per_engine=concurrent,
                horizon_us=horizon, warmup_us=warmup, seed=seed, n_replicas=1)
    return RunConfig(**{**cell, **overrides})


def fig9_rows(concurrency: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
              n_partitions: int = 4, quick: bool = False,
              seed: int = 3,
              overrides: Overrides | None = None) -> list[dict]:
    """Throughput + abort rates per executor per concurrency level."""
    rows = []
    for concurrent in concurrency:
        row: dict = {"concurrent": concurrent}
        for name in TPCC_EXECUTORS:
            run = make_tpcc_run(
                name, tpcc_config(n_partitions, concurrent, quick, seed,
                                  overrides))
            result = run.run()
            metrics = result.metrics
            row[f"{name}_throughput"] = result.throughput
            row[f"{name}_abort_rate"] = metrics.abort_rate()
            if name == "2pl":
                for proc in ("new_order", "payment", "stock_level"):
                    row[f"2pl_{proc}_abort"] = metrics.abort_rate(proc)
        rows.append(row)
    return rows


def print_fig9a(rows: list[dict]) -> None:
    print("\n== Fig. 9a: TPC-C throughput (K txns/sec) vs concurrent "
          "txns/warehouse ==")
    print(f"{'conc':>4} " + "".join(f"{n:>10}" for n in TPCC_EXECUTORS))
    digits = kilo_digits(row[f"{n}_throughput"] for row in rows
                         for n in TPCC_EXECUTORS)
    for row in rows:
        cells = "".join(f"{row[f'{n}_throughput'] / 1e3:>10.{digits}f}"
                        for n in TPCC_EXECUTORS)
        print(f"{row['concurrent']:>4} {cells}")


def print_fig9b(rows: list[dict]) -> None:
    print("\n== Fig. 9b: abort rate vs concurrent txns/warehouse ==")
    print(f"{'conc':>4} " + "".join(f"{n:>10}" for n in TPCC_EXECUTORS))
    for row in rows:
        cells = "".join(f"{row[f'{n}_abort_rate']:>10.2f}"
                        for n in TPCC_EXECUTORS)
        print(f"{row['concurrent']:>4} {cells}")


def print_fig9c(rows: list[dict]) -> None:
    print("\n== Fig. 9c: 2PL abort rate by transaction class ==")
    procs = ("new_order", "payment", "stock_level")
    print(f"{'conc':>4} " + "".join(f"{p:>12}" for p in procs))
    for row in rows:
        cells = "".join(f"{row[f'2pl_{p}_abort']:>12.2f}" for p in procs)
        print(f"{row['concurrent']:>4} {cells}")


# -- Section 7.4: impact of distributed transactions (Fig. 10) --------------

FIG10_MIX = (("new_order", 0.5), ("payment", 0.5))
FIG10_SERIES = (("2pl", 1), ("occ", 1), ("2pl", 5), ("occ", 5),
                ("chiller", 5))


def fig10_rows(percents: Sequence[int] = (0, 20, 40, 60, 80, 100),
               n_partitions: int = 4, quick: bool = False,
               seed: int = 5,
               overrides: Overrides | None = None) -> list[dict]:
    """Throughput vs fraction of distributed transactions."""
    rows = []
    for percent in percents:
        row: dict = {"percent": percent}
        for name, concurrent in FIG10_SERIES:
            workload = TpccWorkload(
                TpccScale(n_warehouses=n_partitions),
                n_partitions=n_partitions, mix=FIG10_MIX,
                payment_remote_prob=percent / 100.0,
                new_order_remote_prob=percent / 100.0)
            run = make_tpcc_run(
                name, tpcc_config(n_partitions, concurrent, quick, seed,
                                  overrides),
                workload=workload)
            result = run.run()
            row[f"{name}_{concurrent}_throughput"] = result.throughput
        rows.append(row)
    return rows


def print_fig10(rows: list[dict]) -> None:
    print("\n== Fig. 10: throughput (K txns/sec) vs % distributed "
          "transactions ==")
    header = "".join(f"{f'{n}({c})':>12}" for n, c in FIG10_SERIES)
    print(f"{'%dist':>5} {header}")
    digits = kilo_digits(row[f"{n}_{c}_throughput"] for row in rows
                         for n, c in FIG10_SERIES)
    for row in rows:
        cells = "".join(
            f"{row[f'{n}_{c}_throughput'] / 1e3:>12.{digits}f}"
            for n, c in FIG10_SERIES)
        print(f"{row['percent']:>5} {cells}")


# -- Ablations ---------------------------------------------------------------

def reorder_ablation_rows(n_partitions: int = 4, n_train: int = 1200,
                          quick: bool = False, seed: int = 2,
                          overrides: Overrides | None = None,
                          ) -> list[dict]:
    """Two-region execution without contention-aware partitioning.

    The paper's Section 1 claim: "re-ordering operations without
    re-considering the partitioning scheme only leads to limited
    performance improvements."  Series: plain 2PL on hashing; two-region
    execution on the hashing layout; two-region on Schism's layout;
    full Chiller (two-region + contention-aware layout).
    """
    setup = build_instacart_setup(n_partitions, n_train=n_train,
                                  seed=seed)
    rows = []
    combos = (("hashing", "2pl", "2PL on hashing"),
              ("hashing", "chiller", "two-region on hashing"),
              ("schism", "chiller", "two-region on Schism"),
              ("chiller", "chiller", "full Chiller"))
    for layout_name, executor_name, label in combos:
        layout = build_instacart_layout(setup, layout_name, seed=seed)
        run = make_instacart_run(
            setup, layout,
            instacart_config(n_partitions, quick, seed, overrides),
            executor_override=executor_name)
        result = run.run()
        rows.append({
            "label": label,
            "layout": layout_name,
            "executor": executor_name,
            "throughput": result.throughput,
            "abort_rate": result.metrics.abort_rate(),
            "distributed": result.metrics.distributed_ratio(),
        })
    return rows


def print_reorder(rows: list[dict]) -> None:
    print("\n== Ablation: execution model vs partitioning layout ==")
    print(f"{'configuration':<26} {'K txns/s':>9} {'abort':>7} "
          f"{'distrib':>8}")
    digits = kilo_digits(row["throughput"] for row in rows)
    for row in rows:
        print(f"{row['label']:<26} {row['throughput'] / 1e3:>9.{digits}f} "
              f"{row['abort_rate']:>7.2f} {row['distributed']:>8.2f}")


def min_weight_ablation_rows(weights: Sequence[float] = (0.0, 0.05, 0.2,
                                                         0.5),
                             n_partitions: int = 4, n_train: int = 1200,
                             quick: bool = False,
                             seed: int = 2,
                             overrides: Overrides | None = None,
                             ) -> list[dict]:
    """Section 4.4: a minimum edge weight co-optimizes contention and
    the number of distributed transactions."""
    setup = build_instacart_setup(n_partitions, n_train=n_train,
                                  seed=seed)
    rows = []
    for weight in weights:
        layout = build_instacart_layout(setup, "chiller", seed=seed,
                                        min_weight=weight)
        run = make_instacart_run(
            setup, layout,
            instacart_config(n_partitions, quick, seed, overrides))
        result = run.run()
        rows.append({
            "min_weight": weight,
            "throughput": result.throughput,
            "abort_rate": result.metrics.abort_rate(),
            "distributed": result.metrics.distributed_ratio(),
        })
    return rows


def print_min_weight(rows: list[dict]) -> None:
    print("\n== Ablation: star-graph minimum edge weight (Section 4.4) ==")
    print(f"{'min_w':>6} {'K txns/s':>9} {'abort':>7} {'distrib':>8}")
    digits = kilo_digits(row["throughput"] for row in rows)
    for row in rows:
        print(f"{row['min_weight']:>6.2f} "
              f"{row['throughput'] / 1e3:>9.{digits}f} "
              f"{row['abort_rate']:>7.2f} {row['distributed']:>8.2f}")


# -- CLI ---------------------------------------------------------------------

FIGURES = ("fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig10",
           "lookup", "cost", "reorder", "minweight")

CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The experiments CLI.  Every option under "run configuration" has
    a ``RunConfig`` field name as its ``dest`` (spelled out where the
    flag's own name is not one) and no default, so the parsed namespace,
    cut down to those names, *is* the ``overrides`` mapping."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.experiments", allow_abbrev=False,
        argument_default=argparse.SUPPRESS,
        parents=[summary_json_parser()],
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "figures", nargs="*", metavar="FIGURE", choices=FIGURES + ("all",),
        # a bare name, not a list: argparse checks the default of an
        # empty nargs="*" positional against ``choices`` as one value
        default="fig7", help=f"{' | '.join(FIGURES)} | all (default: fig7)")
    parser.add_argument("--quick", action="store_true", default=False,
                        help="shrink every sweep (~10x faster)")
    cfg = parser.add_argument_group(
        "run configuration (RunConfig overrides for every cell)")
    cfg.add_argument("--doorbell", dest="doorbell_batching",
                     action="store_true",
                     help="fuse same-destination verbs per round")
    cfg.add_argument("--backend", choices=BACKENDS,
                     help="sim (default), or wall-clock aio / mp")
    cfg.add_argument("--workers", dest="mp_workers", type=_positive_int,
                     metavar="N", help="pack mp servers onto N processes")
    cfg.add_argument("--scheduler", choices=SCHEDULERS,
                     help="cross-transaction scheduling policy")
    cfg.add_argument("--placement", choices=PLACEMENTS,
                     help="static layout or adaptive re-partitioning")
    cfg.add_argument("--wal", choices=WAL_MODES,
                     help="per-server write-ahead-log mode")
    cfg.add_argument("--mp-recovery", action="store_true",
                     help="respawn dead mp workers and replay their WAL "
                     "(needs --wal fsync|group)")
    cfg.add_argument("--chaos-kill", dest="mp_chaos_kill_worker", type=int,
                     metavar="W", help="SIGKILL mp worker W mid-run "
                     "(implies --mp-recovery)")
    cfg.add_argument("--chaos-after", dest="mp_chaos_kill_after_s",
                     type=float, metavar="S",
                     help="seconds before the chaos kill fires")
    cfg.add_argument("--max-restarts", dest="mp_max_restarts", type=int,
                     metavar="N", help="worker respawns allowed per run")
    cfg.add_argument("--arrivals", choices=ARRIVAL_PROCESSES,
                     help="open-loop traffic on a seeded arrival schedule")
    cfg.add_argument("--offered-load", type=float, metavar="TPS",
                     help="aggregate arrival rate, txns/sec")
    cfg.add_argument("--deadline-us", type=float, metavar="US",
                     help="SLO deadline from scheduled arrival")
    cfg.add_argument("--admission", choices=ADMISSIONS,
                     help="open-loop shedding policy")
    cfg.add_argument("--trace", action="store_true",
                     help="record per-phase transaction spans")
    cfg.add_argument("--trace-sample", type=int, metavar="N",
                     help="trace every Nth txn per engine")
    cfg.add_argument("--trace-out", metavar="PATH",
                     help="Perfetto JSON of the last run (implies --trace)")
    cfg.add_argument("--metrics-interval", type=float, metavar="US",
                     help="live metrics timeline sample period")
    cfg.add_argument("--metrics-port", type=int, metavar="P",
                     help="serve Prometheus text (aio/mp)")
    cfg.add_argument("--metrics-csv", metavar="PATH",
                     help="CSV of the last run's timeline")
    cfg.add_argument("--watchdog-abort", action="store_true",
                     help="let a fatal health rule abort a wedged run")
    return parser


def main(argv: Iterable[str] | None = None) -> None:
    parser = build_parser()
    options = vars(parser.parse_intermixed_args(
        argv if argv is None else list(argv)))
    quick = options["quick"]
    admission = options.get("admission")
    overrides = {name: value for name, value in options.items()
                 if name in CONFIG_FIELDS}
    if "mp_chaos_kill_worker" in overrides:
        overrides["mp_recovery"] = True
    if (overrides.get("mp_recovery")
            and overrides.get("wal", "off") == "off"):
        parser.error("--chaos-kill/--mp-recovery respawn a worker over its "
                     "log: they need --wal fsync|group")
    arrivals = overrides.get("arrivals")
    if arrivals:
        if admission:
            overrides["arrivals"] = ArrivalSpec(process=arrivals,
                                                admission=admission)
    elif admission or {"offered_load", "deadline_us"} & overrides.keys():
        parser.error("--offered-load/--deadline-us/--admission need "
                     "--arrivals PROCESS")
    try:
        RunConfig(**overrides).arrival_spec()
    except ValueError as error:
        parser.error(str(error))
    if "trace_out" in overrides:
        overrides["trace"] = True
    if "trace_sample" in overrides and "trace" not in overrides:
        parser.error("--trace-sample needs --trace")
    if ("metrics_interval" not in overrides
            and {"metrics_port", "metrics_csv",
                 "watchdog_abort"} & overrides.keys()):
        parser.error("--metrics-port/--metrics-csv/--watchdog-abort need "
                     "--metrics-interval US")
    figures = options["figures"]
    wanted = {figures} if isinstance(figures, str) else set(figures)
    if "all" in wanted:
        wanted = set(FIGURES)
    backend = overrides.get("backend", "sim")
    if overrides:
        print("(overrides: " + " ".join(
            f"{name}={value}" for name, value in sorted(overrides.items()))
            + ")")
    if backend != "sim":
        print(f"({backend} backend: throughput is wall-clock — commits per "
              f"real second on this machine, not simulated microseconds; "
              f"numbers are NOT comparable to sim-backend figures)")
    flush_summaries = collect_summaries(options["summary_json"])
    try:
        if wanted & {"fig7", "fig8", "lookup", "cost"}:
            partitions = (2, 4, 8) if quick else (2, 3, 4, 5, 6, 7, 8)
            rows = instacart_sweep(partitions, quick=quick,
                                   overrides=overrides)
            if "fig7" in wanted:
                print_fig7(rows)
            if "fig8" in wanted:
                print_fig8(rows)
            if "lookup" in wanted:
                print_lookup(rows)
            if "cost" in wanted:
                print_cost(rows)
        if wanted & {"fig9a", "fig9b", "fig9c"}:
            concurrency = ((1, 2, 4, 8) if quick
                           else (1, 2, 3, 4, 5, 6, 7, 8))
            rows = fig9_rows(concurrency, quick=quick, overrides=overrides)
            if "fig9a" in wanted:
                print_fig9a(rows)
            if "fig9b" in wanted:
                print_fig9b(rows)
            if "fig9c" in wanted:
                print_fig9c(rows)
        if "fig10" in wanted:
            percents = (0, 50, 100) if quick else (0, 20, 40, 60, 80, 100)
            print_fig10(fig10_rows(percents, quick=quick,
                                   overrides=overrides))
        if "reorder" in wanted:
            print_reorder(reorder_ablation_rows(quick=quick,
                                                overrides=overrides))
        if "minweight" in wanted:
            print_min_weight(min_weight_ablation_rows(
                quick=quick, overrides=overrides))
    finally:
        flush_summaries()


if __doc__:  # absent under -OO
    __doc__ += ("\nThe command line, as ``--help`` prints it::\n\n"
                + textwrap.indent(build_parser().format_help(), "    "))

if __name__ == "__main__":
    main()
