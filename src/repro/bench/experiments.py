"""Parameter sweeps regenerating every table and figure of the paper.

Each ``figN_rows`` function returns plain dict rows (so tests can assert
shapes) and has a printer producing the same series the paper plots.
Run from the command line::

    python -m repro.bench.experiments fig7 fig8 fig9a fig9b fig9c fig10
    python -m repro.bench.experiments lookup cost reorder minweight
    python -m repro.bench.experiments all        # everything (slow-ish)
    python -m repro.bench.experiments all --quick
    python -m repro.bench.experiments fig7 --doorbell   # fused verbs on
    python -m repro.bench.experiments fig9a --quick --backend aio
    python -m repro.bench.experiments fig9a --quick --backend mp
    python -m repro.bench.experiments fig9a --quick --backend mp --workers 2
    python -m repro.bench.experiments fig9a --scheduler conflict
    python -m repro.bench.experiments fig9a --quick --profile /tmp/prof
    python -m repro.bench.experiments fig9a --quick --backend mp --wal group
    python -m repro.bench.experiments fig9a --quick --backend mp \\
        --wal group --mp-recovery --chaos-kill 1 --chaos-after 0.5
    python -m repro.bench.experiments fig9a --arrivals poisson \\
        --offered-load 200000 --deadline-us 4000
    python -m repro.bench.experiments fig9a --arrivals tenants \\
        --offered-load 1200000 --admission deadline
    python -m repro.bench.experiments fig9a --quick --trace \\
        --trace-out /tmp/fig9a.json --trace-sample 1
    python -m repro.bench.experiments fig9a --quick --summary-json /tmp/s.json
    python -m repro.bench.experiments fig9a --quick --metrics-interval 500
    python -m repro.bench.experiments fig9a --quick --backend mp \\
        --metrics-interval 50000 --metrics-port 9100 --watch
    python -m repro.bench.experiments fig9a --quick \\
        --metrics-interval 500 --metrics-csv /tmp/fig9a.timeline.csv

``--wal off|fsync|group`` selects the per-server write-ahead-log mode
(commit decisions become durable; see ARCHITECTURE.md, "Durability &
recovery").  ``--mp-recovery`` respawns SIGKILL'd mp workers and
replays their WAL instead of failing the run; ``--chaos-kill W``
SIGKILLs worker W ``--chaos-after S`` seconds into the run (implies
``--mp-recovery``), and ``--max-restarts N`` bounds respawns.

``--profile DIR`` dumps cProfile stats: ``parent.prof`` always, plus
``worker-N.prof`` per mp worker process.

``--scheduler fifo|conflict`` selects the cross-transaction scheduling
policy (:mod:`repro.sched`); unset and ``fifo`` reproduce the
historical raw dispatch loop bit-for-bit.
``--arrivals poisson|diurnal|flash|tenants`` switches the sweep to
open-loop traffic (:mod:`repro.traffic`): requests enter on a seeded
arrival schedule regardless of completion, and latency is measured
from the scheduled arrival (coordinated-omission-safe).
``--offered-load T`` sets the aggregate rate in txns/sec,
``--deadline-us D`` the SLO deadline, and ``--admission
none|deadline`` the shedding policy.  Unset, runs stay closed-loop and
every figure is bit-identical to the historical output.  Open-loop
throughput figures are NOT comparable to closed-loop ones — see
EXPERIMENTS.md, "Open-loop traffic".
``--trace`` records per-phase transaction spans (:mod:`repro.obs`) on
every run of the sweep; ``--trace-sample N`` traces every Nth
transaction per engine, and ``--trace-out PATH`` (implies ``--trace``)
writes the last run's spans as Chrome ``trace_event`` JSON for
``ui.perfetto.dev``.  ``--summary-json PATH`` collects every run's
``perf_summary()`` — including the trace/exemplar sections when
tracing — into one JSON array.
``--metrics-interval US`` turns on the live metrics timeline
(:mod:`repro.obs.timeline`): every US microseconds (simulated on sim,
wall clock on aio/mp) each run samples delta counters per server and
the health watchdog checks for stalls, queue saturation, SLO burn,
lease flaps, and restart storms (``perf_summary()['timeline']`` /
``['health']``).  ``--metrics-port P`` serves live Prometheus text on
``127.0.0.1:P/metrics`` (aio/mp), ``--metrics-csv PATH`` writes the
last run's timeline as CSV, ``--watch`` prints a sparkline dashboard
after each run, and ``--watchdog-abort`` lets a fatal rule abort a
wedged run early.
``--backend aio`` drives the same sweep through the wall-clock runtime
(real event loop, wall-clock time, one in-process worker owning every
server) instead of the simulator; ``--backend mp`` through the same
runtime with one OS process per server and codec frames over TCP
between them (``--workers N`` packs servers onto fewer processes).  See
EXPERIMENTS.md for how to read those numbers — they measure what this
machine actually sustains, not the modeled RDMA cluster.

Absolute throughput differs from the paper (their 8-node InfiniBand
testbed vs our discrete-event simulator); the *shapes* — orderings,
scaling trends, crossovers — are the reproduction target (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from ..workloads.instacart import InstacartWorkload
from ..workloads.tpcc import TpccScale, TpccWorkload
from ..placement import PLACEMENTS
from ..sched import SCHEDULERS
from ..storage.wal import WAL_MODES
from ..traffic import ADMISSIONS, ARRIVAL_PROCESSES, ArrivalSpec
from .harness import BACKENDS, RunConfig, install_summary_json
from .setups import (build_instacart_layout, build_instacart_setup,
                     make_instacart_run, make_tpcc_run)

INSTACART_LAYOUTS = ("hashing", "schism", "chiller")
TPCC_EXECUTORS = ("2pl", "occ", "chiller")


# -- Section 7.2: Instacart (Figs. 7 & 8, lookup size, partitioner cost) ----

def instacart_config(n_partitions: int, quick: bool = False,
                     seed: int = 2,
                     doorbell_batching: bool = False,
                     backend: str = "sim",
                     mp_workers: int | None = None,
                     scheduler: str | None = None,
                     placement: str | None = None,
                     profile_dir: str | None = None,
                     durability: dict | None = None,
                     traffic: dict | None = None,
                     tracing: dict | None = None,
                     observability: dict | None = None) -> RunConfig:
    return RunConfig(n_partitions=n_partitions,
                     concurrent_per_engine=4,
                     horizon_us=4_000.0 if quick else 12_000.0,
                     warmup_us=500.0 if quick else 2_000.0,
                     # open-loop arrivals pin each request to its
                     # scheduled home; data-affinity routing is a
                     # closed-loop worker concern (see repro.traffic)
                     seed=seed, n_replicas=1, route_by_data=not traffic,
                     doorbell_batching=doorbell_batching,
                     backend=backend, mp_workers=mp_workers,
                     scheduler=scheduler, placement=placement,
                     mp_profile_dir=profile_dir,
                     **(durability or {}), **(traffic or {}),
                     **(tracing or {}), **(observability or {}))


def instacart_sweep(partitions: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                    n_train: int = 3000, quick: bool = False,
                    seed: int = 2,
                    layouts: Sequence[str] = INSTACART_LAYOUTS,
                    workload_factory=InstacartWorkload,
                    doorbell_batching: bool = False,
                    backend: str = "sim",
                    mp_workers: int | None = None,
                    scheduler: str | None = None,
                    placement: str | None = None,
                    profile_dir: str | None = None,
                    durability: dict | None = None,
                    traffic: dict | None = None,
                    tracing: dict | None = None,
                    observability: dict | None = None) -> list[dict]:
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
                setup, layout,
                instacart_config(k, quick, seed, doorbell_batching,
                                 backend, mp_workers, scheduler,
                                 placement, profile_dir, durability,
                                 traffic, tracing, observability))
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
    for row in rows:
        cells = "".join(f"{row[f'{n}_throughput'] / 1e3:>12.0f}"
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
                doorbell_batching: bool = False,
                backend: str = "sim",
                mp_workers: int | None = None,
                scheduler: str | None = None,
                placement: str | None = None,
                profile_dir: str | None = None,
                durability: dict | None = None,
                traffic: dict | None = None,
                tracing: dict | None = None,
                observability: dict | None = None) -> RunConfig:
    return RunConfig(n_partitions=n_partitions,
                     concurrent_per_engine=concurrent,
                     horizon_us=5_000.0 if quick else 15_000.0,
                     warmup_us=500.0 if quick else 2_000.0,
                     seed=seed, n_replicas=1,
                     doorbell_batching=doorbell_batching,
                     backend=backend, mp_workers=mp_workers,
                     scheduler=scheduler, placement=placement,
                     mp_profile_dir=profile_dir,
                     **(durability or {}), **(traffic or {}),
                     **(tracing or {}), **(observability or {}))


def fig9_rows(concurrency: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
              n_partitions: int = 4, quick: bool = False,
              seed: int = 3, doorbell_batching: bool = False,
              backend: str = "sim",
              mp_workers: int | None = None,
              scheduler: str | None = None,
              placement: str | None = None,
              profile_dir: str | None = None,
              durability: dict | None = None,
              traffic: dict | None = None,
              tracing: dict | None = None,
              observability: dict | None = None) -> list[dict]:
    """Throughput + abort rates per executor per concurrency level."""
    rows = []
    for concurrent in concurrency:
        row: dict = {"concurrent": concurrent}
        for name in TPCC_EXECUTORS:
            run = make_tpcc_run(
                name, tpcc_config(n_partitions, concurrent, quick, seed,
                                  doorbell_batching, backend, mp_workers,
                                  scheduler, placement, profile_dir,
                                  durability, traffic, tracing,
                                  observability))
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
    for row in rows:
        cells = "".join(f"{row[f'{n}_throughput'] / 1e3:>10.0f}"
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
               seed: int = 5, doorbell_batching: bool = False,
               backend: str = "sim",
               mp_workers: int | None = None,
               scheduler: str | None = None,
               placement: str | None = None,
               profile_dir: str | None = None,
               durability: dict | None = None,
               traffic: dict | None = None,
               tracing: dict | None = None,
               observability: dict | None = None) -> list[dict]:
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
                                  doorbell_batching, backend, mp_workers,
                                  scheduler, placement, profile_dir,
                                  durability, traffic, tracing,
                                  observability),
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
    for row in rows:
        cells = "".join(
            f"{row[f'{n}_{c}_throughput'] / 1e3:>12.0f}"
            for n, c in FIG10_SERIES)
        print(f"{row['percent']:>5} {cells}")


# -- Ablations ---------------------------------------------------------------

def reorder_ablation_rows(n_partitions: int = 4, n_train: int = 1200,
                          quick: bool = False, seed: int = 2,
                          doorbell_batching: bool = False,
                          backend: str = "sim",
                          mp_workers: int | None = None,
                          scheduler: str | None = None) -> list[dict]:
    """Two-region execution without contention-aware partitioning.

    The paper's Section 1 claim: "re-ordering operations without
    re-considering the partitioning scheme only leads to limited
    performance improvements."  Series: plain 2PL on hashing; two-region
    execution on the hashing layout; two-region on Schism's layout;
    full Chiller (two-region + contention-aware layout).
    """
    setup = build_instacart_setup(n_partitions, n_train=n_train,
                                  seed=seed)
    config = instacart_config(n_partitions, quick, seed, doorbell_batching,
                              backend, mp_workers, scheduler)
    rows = []
    combos = (("hashing", "2pl", "2PL on hashing"),
              ("hashing", "chiller", "two-region on hashing"),
              ("schism", "chiller", "two-region on Schism"),
              ("chiller", "chiller", "full Chiller"))
    for layout_name, executor_name, label in combos:
        layout = build_instacart_layout(setup, layout_name, seed=seed)
        run = make_instacart_run(setup, layout, config,
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
    for row in rows:
        print(f"{row['label']:<26} {row['throughput'] / 1e3:>9.0f} "
              f"{row['abort_rate']:>7.2f} {row['distributed']:>8.2f}")


def min_weight_ablation_rows(weights: Sequence[float] = (0.0, 0.05, 0.2,
                                                         0.5),
                             n_partitions: int = 4, n_train: int = 1200,
                             quick: bool = False,
                             seed: int = 2,
                             doorbell_batching: bool = False,
                             backend: str = "sim",
                             mp_workers: int | None = None,
                             scheduler: str | None = None) -> list[dict]:
    """Section 4.4: a minimum edge weight co-optimizes contention and
    the number of distributed transactions."""
    setup = build_instacart_setup(n_partitions, n_train=n_train,
                                  seed=seed)
    config = instacart_config(n_partitions, quick, seed, doorbell_batching,
                              backend, mp_workers, scheduler)
    rows = []
    for weight in weights:
        layout = build_instacart_layout(setup, "chiller", seed=seed,
                                        min_weight=weight)
        run = make_instacart_run(setup, layout, config)
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
    for row in rows:
        print(f"{row['min_weight']:>6.2f} {row['throughput'] / 1e3:>9.0f} "
              f"{row['abort_rate']:>7.2f} {row['distributed']:>8.2f}")


# -- CLI ---------------------------------------------------------------------

def _parse_option(args: list[str], name: str,
                  allowed: Sequence[str] | None = None,
                  ) -> tuple[str | None, list[str]]:
    """Extract ``--name X`` / ``--name=X``; returns (value, rest).

    One extraction loop for every CLI knob: missing values and (when
    ``allowed`` is given) unknown values exit with the same message
    shape everywhere.
    """
    flag = f"--{name}"
    value: str | None = None
    rest: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == flag:
            if i + 1 >= len(args):
                raise SystemExit(
                    f"{flag} needs a value"
                    + (f" ({' | '.join(allowed)})" if allowed else ""))
            value = args[i + 1]
            i += 2
            continue
        if arg.startswith(flag + "="):
            value = arg.split("=", 1)[1]
            i += 1
            continue
        rest.append(arg)
        i += 1
    if value is not None and allowed is not None and value not in allowed:
        raise SystemExit(f"unknown {name} {value!r} "
                         f"(expected {' | '.join(allowed)})")
    return value, rest


def _parse_workers(args: list[str]) -> tuple[int | None, list[str]]:
    """Extract ``--workers N`` / ``--workers=N`` (mp worker processes)."""
    value, rest = _parse_option(args, "workers")
    if value is None:
        return None, rest
    try:
        workers = int(value)
    except ValueError:
        raise SystemExit(f"--workers needs an integer, got {value!r}")
    if workers < 1:
        raise SystemExit("--workers must be >= 1")
    return workers, rest


def main(argv: Iterable[str] | None = None) -> None:
    args = list(sys.argv[1:] if argv is None else argv)
    backend, args = _parse_option(args, "backend", BACKENDS)
    backend = backend or "sim"
    workers, args = _parse_workers(args)
    scheduler, args = _parse_option(args, "scheduler", SCHEDULERS)
    placement, args = _parse_option(args, "placement", PLACEMENTS)
    profile_dir, args = _parse_option(args, "profile")
    wal, args = _parse_option(args, "wal", WAL_MODES)
    chaos_kill, args = _parse_option(args, "chaos-kill")
    chaos_after, args = _parse_option(args, "chaos-after")
    max_restarts, args = _parse_option(args, "max-restarts")
    arrivals, args = _parse_option(args, "arrivals", ARRIVAL_PROCESSES)
    offered_load, args = _parse_option(args, "offered-load")
    deadline_us, args = _parse_option(args, "deadline-us")
    admission, args = _parse_option(args, "admission", ADMISSIONS)
    trace_out, args = _parse_option(args, "trace-out")
    trace_sample, args = _parse_option(args, "trace-sample")
    metrics_interval, args = _parse_option(args, "metrics-interval")
    metrics_port, args = _parse_option(args, "metrics-port")
    metrics_csv, args = _parse_option(args, "metrics-csv")
    args, flush_summaries = install_summary_json(args)
    quick = "--quick" in args
    doorbell = "--doorbell" in args
    mp_recovery = "--mp-recovery" in args
    trace = "--trace" in args or trace_out is not None
    watch = "--watch" in args
    watchdog_abort = "--watchdog-abort" in args
    args = [a for a in args if not a.startswith("--")]
    durability: dict = {}
    if wal:
        durability["wal"] = wal
    if mp_recovery or chaos_kill is not None:
        durability["mp_recovery"] = True
    try:
        if chaos_kill is not None:
            durability["mp_chaos_kill_worker"] = int(chaos_kill)
        if chaos_after is not None:
            durability["mp_chaos_kill_after_s"] = float(chaos_after)
        if max_restarts is not None:
            durability["mp_max_restarts"] = int(max_restarts)
    except ValueError as exc:
        raise SystemExit(f"bad durability knob: {exc}")
    traffic: dict = {}
    if arrivals:
        traffic["arrivals"] = (ArrivalSpec(process=arrivals,
                                           admission=admission)
                               if admission else arrivals)
    elif admission or offered_load or deadline_us:
        raise SystemExit("--offered-load/--deadline-us/--admission need "
                         "--arrivals PROCESS")
    try:
        if offered_load is not None:
            traffic["offered_load"] = float(offered_load)
        if deadline_us is not None:
            traffic["deadline_us"] = float(deadline_us)
    except ValueError as exc:
        raise SystemExit(f"bad traffic knob: {exc}")
    tracing: dict = {}
    if trace:
        tracing["trace"] = True
        if trace_out is not None:
            tracing["trace_out"] = trace_out
        try:
            if trace_sample is not None:
                tracing["trace_sample"] = int(trace_sample)
        except ValueError:
            raise SystemExit(f"--trace-sample needs an integer, got "
                             f"{trace_sample!r}")
    elif trace_sample is not None:
        raise SystemExit("--trace-sample needs --trace")
    observability: dict = {}
    if metrics_interval is not None:
        try:
            observability["metrics_interval"] = float(metrics_interval)
        except ValueError:
            raise SystemExit(f"--metrics-interval needs a number "
                             f"(microseconds), got {metrics_interval!r}")
        if metrics_port is not None:
            try:
                observability["metrics_port"] = int(metrics_port)
            except ValueError:
                raise SystemExit(f"--metrics-port needs an integer, "
                                 f"got {metrics_port!r}")
        if metrics_csv is not None:
            observability["metrics_csv"] = metrics_csv
        if watch:
            observability["metrics_watch"] = True
        if watchdog_abort:
            observability["watchdog_abort"] = True
    elif (metrics_port is not None or metrics_csv is not None
          or watch or watchdog_abort):
        raise SystemExit("--metrics-port/--metrics-csv/--watch/"
                         "--watchdog-abort need --metrics-interval US")
    wanted = set(args) or {"fig7"}
    if "all" in wanted:
        wanted = {"fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig10",
                  "lookup", "cost", "reorder", "minweight"}
    if doorbell:
        print("(doorbell batching ON: same-destination verbs fused per "
              "round)")
    if backend == "aio":
        print("(asyncio backend: throughput is wall-clock — commits per "
              "real second of event-loop time, not simulated microseconds; "
              "numbers are NOT comparable to sim-backend figures)")
    if backend == "mp":
        print("(multiprocess backend: one OS process per server"
              + (f", packed onto {workers} workers" if workers else "")
              + "; throughput is wall-clock across truly parallel "
              "workers — comparable to aio numbers only, never to sim "
              "figures)")
    if scheduler:
        print(f"(scheduler: {scheduler} — every engine mediates its "
              f"load through repro.sched before executing)")
    if placement:
        print(f"(placement: {placement} — access telemetry drives "
              f"periodic re-partitioning with live record migration)")
    if durability:
        knobs = " ".join(f"{k}={v}" for k, v in sorted(durability.items()))
        print(f"(durability: {knobs} — commit decisions go through the "
              f"per-server WAL; dead mp workers are respawned and "
              f"replayed when mp_recovery is on)")
    if traffic:
        print(f"(open-loop traffic: arrivals={arrivals}"
              + (f" offered_load={traffic['offered_load']:.0f}/s"
                 if "offered_load" in traffic else "")
              + (f" deadline={traffic['deadline_us']:.0f}us"
                 if "deadline_us" in traffic else "")
              + (f" admission={admission}" if admission else "")
              + " — requests enter on a seeded schedule regardless of "
              "completion; latency is measured from scheduled arrival "
              "and throughput is NOT comparable to closed-loop figures)")
    if trace:
        print("(tracing: per-phase spans recorded"
              + (f", every {tracing['trace_sample']}th txn"
                 if "trace_sample" in tracing else "")
              + (f", Perfetto JSON of the last run to {trace_out}"
                 if trace_out else "")
              + " — see perf_summary()['trace'] / ['exemplars'])")
    if observability:
        unit = "simulated us" if backend == "sim" else "wall-clock us"
        print(f"(live metrics: timeline sampled every "
              f"{observability['metrics_interval']:.0f} {unit}"
              + (f", Prometheus on port {observability['metrics_port']}"
                 if "metrics_port" in observability else "")
              + (f", CSV of the last run to {metrics_csv}"
                 if metrics_csv else "")
              + (", watchdog aborts wedged runs" if watchdog_abort
                 else "")
              + " — see perf_summary()['timeline'] / ['health'])")

    def run_wanted() -> None:
        if wanted & {"fig7", "fig8", "lookup", "cost"}:
            partitions = (2, 4, 8) if quick else (2, 3, 4, 5, 6, 7, 8)
            rows = instacart_sweep(partitions, quick=quick,
                                   doorbell_batching=doorbell,
                                   backend=backend, mp_workers=workers,
                                   scheduler=scheduler, placement=placement,
                                   profile_dir=profile_dir,
                                   durability=durability or None,
                                   traffic=traffic or None,
                                   tracing=tracing or None,
                                   observability=observability or None)
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
            rows = fig9_rows(concurrency, quick=quick,
                             doorbell_batching=doorbell, backend=backend,
                             mp_workers=workers, scheduler=scheduler,
                             placement=placement,
                             profile_dir=profile_dir,
                             durability=durability or None,
                             traffic=traffic or None,
                             tracing=tracing or None,
                             observability=observability or None)
            if "fig9a" in wanted:
                print_fig9a(rows)
            if "fig9b" in wanted:
                print_fig9b(rows)
            if "fig9c" in wanted:
                print_fig9c(rows)
        if "fig10" in wanted:
            percents = (0, 50, 100) if quick else (0, 20, 40, 60, 80, 100)
            print_fig10(fig10_rows(percents, quick=quick,
                                   doorbell_batching=doorbell,
                                   backend=backend, mp_workers=workers,
                                   scheduler=scheduler,
                                   placement=placement,
                                   profile_dir=profile_dir,
                                   durability=durability or None,
                                   traffic=traffic or None,
                                   tracing=tracing or None,
                                   observability=observability or None))
        if "reorder" in wanted:
            print_reorder(reorder_ablation_rows(quick=quick,
                                                doorbell_batching=doorbell,
                                                backend=backend,
                                                mp_workers=workers,
                                                scheduler=scheduler))
        if "minweight" in wanted:
            print_min_weight(min_weight_ablation_rows(
                quick=quick, doorbell_batching=doorbell, backend=backend,
                mp_workers=workers, scheduler=scheduler))

    if profile_dir is None:
        try:
            run_wanted()
        finally:
            flush_summaries()
        return
    # --profile DIR: cProfile the parent (the whole sweep; on the sim
    # backend that IS the run) and have each mp worker dump its own
    # worker-N.prof into the same directory (see RunConfig.mp_profile_dir)
    import cProfile
    import os
    os.makedirs(profile_dir, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_wanted()
    finally:
        profiler.disable()
        path = os.path.join(profile_dir, "parent.prof")
        profiler.dump_stats(path)
        print(f"(cProfile dumps in {profile_dir}: parent.prof"
              + (", worker-N.prof per mp worker" if backend == "mp"
                 else "") + ")")
        flush_summaries()


if __name__ == "__main__":
    main()
