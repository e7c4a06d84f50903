"""chiller-repro: a reproduction of Chiller (SIGMOD 2020).

Zamanian, Shun, Binnig, Kraska - *Chiller: Contention-centric
Transaction Execution and Data Partitioning for Fast Networks.*

The package layers, bottom-up:

* :mod:`repro.sim` - discrete-event cluster (cores, RDMA-style network,
  coroutine engines);
* :mod:`repro.storage` - records, NO_WAIT lock words in hash buckets,
  partitions, placement catalog;
* :mod:`repro.analysis` - stored-procedure IR and dependency graphs;
* :mod:`repro.txn` - database wiring plus the 2PL+2PC and OCC baselines;
* :mod:`repro.graph` - multilevel balanced min-cut (METIS substitute);
* :mod:`repro.partitioning` - hash/range/lookup schemes and Schism;
* :mod:`repro.core` - Chiller itself: contention model, star-graph
  partitioner, hot-record table, region planner, two-region executor;
* :mod:`repro.replication` - replicas and the Fig. 6 inner protocol;
* :mod:`repro.workloads` - TPC-C, synthetic Instacart, YCSB, demos;
* :mod:`repro.bench` - driver, metrics, per-figure experiments.

Quick start: see README.md or ``examples/quickstart.py``.
"""

__version__ = "1.0.0"

from .bench import RunConfig, run_benchmark
from .core import ChillerExecutor, HotRecordTable, partition_workload
from .sim import Cluster
from .storage import Catalog
from .txn import Database, OccExecutor, TwoPLExecutor, TxnRequest

__all__ = [
    "Catalog",
    "ChillerExecutor",
    "Cluster",
    "Database",
    "HotRecordTable",
    "OccExecutor",
    "RunConfig",
    "TwoPLExecutor",
    "TxnRequest",
    "__version__",
    "partition_workload",
    "run_benchmark",
]
