"""Experiment setups: wire workloads, layouts, and executors together.

:func:`build_run` is the one place a benchmark database is built and
an executor picked by name; the factories around it only choose a
workload, a placement scheme and a hot-record table.

Two families, one per evaluation section of the paper:

* **TPC-C** (Section 7.3/7.4): warehouse partitioning for everyone
  (``ModuloScheme``), so only the execution models differ.  Chiller's
  hot-record table is derived from sampled statistics through the
  contention model — warehouses and districts clear the threshold,
  customers/stock do not.

* **Instacart** (Section 7.2): layouts differ.  A training trace feeds
  hash placement (baseline), Schism's co-access min-cut, or Chiller's
  contention-aware star-graph cut; runtime then drives the NewOrder-like
  grocery procedure against the chosen layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Literal

from ..analysis import ProcedureRegistry
from ..core import (ChillerExecutor, ChillerPartitionerConfig,
                    HotRecordTable, StatsService, partition_workload,
                    sample_from_request)
from ..partitioning import (ModuloScheme, SchismConfig, partition_schism)
from ..storage import Catalog
from ..txn import (Database, HistoryRecorder, OccExecutor, TwoPLExecutor)
from ..workloads.instacart import InstacartWorkload
from ..workloads.tpcc import (REPLICATED_TABLES, TpccScale, TpccWorkload,
                              tpcc_routing)
from ..workloads.ycsb import YcsbWorkload
from ..sim.supervisor import MpRunSpec, current_worker_cluster
from .harness import Run, RunConfig, assign_wal_dir, make_cluster

ExecutorName = Literal["2pl", "occ", "chiller"]

EXECUTORS = {"2pl": TwoPLExecutor, "occ": OccExecutor,
             "chiller": ChillerExecutor}
"""Execution models by name; ``chiller`` also takes a hot-record table."""


def build_run(workload, catalog: Catalog, config: RunConfig,
              executor_name: ExecutorName = "2pl",
              hot_table: HotRecordTable | None = None,
              rebuild: Callable[[], Run] | None = None) -> Run:
    """Build ``workload``'s database over ``catalog`` on ``config``'s
    backend, load it, and put the named executor in front of it.

    Module-level and picklable-by-reference: on the mp backend the
    parent-side build records itself (same arguments -> same
    deterministic database) as the recipe each worker process re-runs.
    A caller that wires more onto the run after this returns (an RPC
    handler, a workload clock) passes its own module-level ``rebuild``
    — a picklable zero-argument callable — so workers get that too.
    """
    assign_wal_dir(config)
    cluster = make_cluster(config)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, catalog, workload.tables(), registry,
                  n_replicas=config.n_replicas,
                  wal=config.wal_spec())
    workload.populate(db.loader())
    history = HistoryRecorder() if config.record_history else None
    executor_class = EXECUTORS.get(executor_name)
    if executor_class is None:
        raise ValueError(f"unknown executor {executor_name!r} "
                         f"(expected {' | '.join(EXECUTORS)})")
    over = (db,)
    if executor_class is ChillerExecutor:
        if hot_table is None:
            raise ValueError("the chiller executor needs a hot_table")
        over = (db, hot_table)
    run = Run(workload, db,
              executor_class(*over, history), config)
    if config.backend == "mp" and current_worker_cluster() is None:
        run.mp_spec = MpRunSpec(rebuild or partial(
            build_run, workload, catalog, config, executor_name, hot_table))
    return run


# -- TPC-C ------------------------------------------------------------------

def make_tpcc_run(executor_name: ExecutorName,
                  config: RunConfig,
                  workload: TpccWorkload | None = None) -> Run:
    """Build a TPC-C database + executor over warehouse partitioning."""
    workload = workload or TpccWorkload(
        TpccScale(n_warehouses=config.n_partitions),
        n_partitions=config.n_partitions)
    scheme = ModuloScheme(config.n_partitions, routing=tpcc_routing)
    hot_table = None
    if executor_name == "chiller":
        hot_table = tpcc_static_hot_table(workload, scheme)
    return build_run(workload,
                     Catalog(config.n_partitions, scheme,
                             replicated_tables=REPLICATED_TABLES),
                     config, executor_name, hot_table)


def make_ycsb_run(executor_name: ExecutorName,
                  config: RunConfig,
                  workload: YcsbWorkload | None = None) -> Run:
    """Build a YCSB key-value cell over modulo partitioning.

    The wire-path microbenchmarks use this: YCSB's flat read/write mix
    with ``route_by_data`` off makes nearly every transaction touch
    foreign partitions, so throughput tracks the transport + codec cost
    more directly than TPC-C's mostly-local mix.
    """
    return build_run(workload or YcsbWorkload(),
                     Catalog(config.n_partitions,
                             ModuloScheme(config.n_partitions)),
                     config, executor_name)


def tpcc_static_hot_table(workload: TpccWorkload,
                          scheme) -> HotRecordTable:
    """The analytically-known TPC-C hot set: warehouses + districts."""
    from ..workloads.tpcc import DISTRICTS_PER_WAREHOUSE
    entries = {}
    for w in range(workload.scale.n_warehouses):
        entries[("warehouse", w)] = scheme.partition_of("warehouse", w)
        for d in range(DISTRICTS_PER_WAREHOUSE):
            entries[("district", (w, d))] = scheme.partition_of(
                "district", (w, d))
    return HotRecordTable(entries)


# -- Instacart ------------------------------------------------------------------

LayoutName = Literal["hashing", "schism", "chiller"]


@dataclass
class InstacartLayout:
    """A trained layout plus its diagnostics."""

    name: str
    scheme: object
    hot_table: HotRecordTable
    lookup_table_size: int
    graph_edges: int
    partition_seconds: float
    executor_name: ExecutorName = "2pl"


@dataclass
class InstacartSetup:
    """Shared training artifacts for one Instacart configuration."""

    workload: InstacartWorkload
    n_partitions: int
    samples: list = field(default_factory=list)
    likelihoods: dict = field(default_factory=dict)


def build_instacart_setup(n_partitions: int,
                          n_train: int = 1500,
                          workload: InstacartWorkload | None = None,
                          seed: int = 7,
                          lock_window_us: float = 10.0,
                          assumed_tps: float = 400_000.0,
                          ) -> InstacartSetup:
    """Generate the training trace and contention statistics."""
    workload = workload or InstacartWorkload()
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    trace = workload.trace(n_train, n_partitions, seed=seed)
    stats = StatsService(sample_rate=1.0, lock_window_us=lock_window_us)
    for request in trace:
        stats.record(sample_from_request(registry, request))
    likelihoods = stats.likelihoods_from_txn_rate(assumed_tps)
    return InstacartSetup(workload, n_partitions,
                          samples=stats.samples,
                          likelihoods=likelihoods)


def build_instacart_layout(setup: InstacartSetup, name: LayoutName,
                           seed: int = 7,
                           eps: float = 0.15,
                           hot_threshold: float = 0.02,
                           min_weight: float = 0.0,
                           n_tries: int = 2) -> InstacartLayout:
    """Train one of the three layouts the Fig. 7/8 experiment compares."""
    k = setup.n_partitions
    fallback = ModuloScheme(k)  # stock by product id, orders by home
    if name == "hashing":
        return InstacartLayout("hashing", fallback,
                               HotRecordTable.empty(), 0, 0, 0.0, "2pl")
    if name == "schism":
        start = time.perf_counter()
        result = partition_schism(
            setup.samples, k, SchismConfig(eps=eps, seed=seed))
        elapsed = time.perf_counter() - start
        return InstacartLayout("schism", result.scheme(fallback),
                               HotRecordTable.empty(),
                               result.lookup_table_size(),
                               result.n_edges, elapsed, "2pl")
    if name == "chiller":
        start = time.perf_counter()
        result = partition_workload(
            setup.samples, setup.likelihoods, k,
            ChillerPartitionerConfig(eps=eps, seed=seed,
                                     hot_threshold=hot_threshold,
                                     min_weight=min_weight))
        elapsed = time.perf_counter() - start
        return InstacartLayout("chiller", result.scheme(fallback),
                               result.hot_table,
                               result.lookup_table_size(),
                               result.star.graph.n_edges, elapsed,
                               "chiller")
    raise ValueError(f"unknown layout {name!r}")


def make_instacart_run(setup: InstacartSetup, layout: InstacartLayout,
                       config: RunConfig,
                       executor_override: ExecutorName | None = None,
                       ) -> Run:
    """Build the runtime database for one trained layout.

    ``executor_override`` supports the ablations: e.g. two-region
    execution over a Schism or hash layout ("reorder-only").
    """
    catalog = Catalog(config.n_partitions, layout.scheme)
    executor_name = executor_override or layout.executor_name
    hot_table = layout.hot_table
    if executor_name == "chiller" and not len(hot_table):
        # two-region execution over a foreign layout: hot records
        # from the stats, placements from that layout
        hot_table = HotRecordTable.from_stats(setup.likelihoods, 0.02,
                                              catalog.partition_of)
    return build_run(setup.workload, catalog, config, executor_name,
                     hot_table)
