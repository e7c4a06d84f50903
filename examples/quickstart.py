"""Quickstart: build a cluster, run a contended workload, compare
traditional 2PL against Chiller's two-region execution.

    python examples/quickstart.py

The bank workload concentrates 70% of transfers on a few hot accounts.
Chiller places those accounts in its hot-record table; transfers
touching them execute the hot part as an inner region, shrinking the
hot locks' contention span from two network round trips to a local
critical section.
"""

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.core import ChillerExecutor, HotRecordTable
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, HistoryRecorder, TwoPLExecutor
from repro.workloads.bank import BankWorkload

N_PARTITIONS = 4
HOT_ACCOUNTS = 5


def build_database(workload, config, scheme):
    cluster = Cluster(config.n_partitions, config.doorbell_batching)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, Catalog(config.n_partitions, scheme),
                  workload.tables(), registry,
                  n_replicas=config.n_replicas)
    workload.populate(db.loader())
    return db


def run(executor_name):
    workload = BankWorkload(n_accounts=200, hot_accounts=HOT_ACCOUNTS,
                            hot_probability=0.7)
    config = RunConfig(n_partitions=N_PARTITIONS,
                       concurrent_per_engine=4,
                       horizon_us=10_000.0, warmup_us=1_000.0,
                       seed=1, n_replicas=1)
    history = HistoryRecorder()
    fallback = HashScheme(config.n_partitions)
    if executor_name == "2pl":
        db = build_database(workload, config, fallback)
        executor = TwoPLExecutor(db, history=history)
    else:
        # Chiller's two halves: (1) the lookup table CO-LOCATES the hot
        # accounts on one partition; (2) transactions touching them run
        # that part as a unilaterally-committing inner region.
        hot = HotRecordTable({("accounts", a): 0
                              for a in range(HOT_ACCOUNTS)})
        db = build_database(workload, config, hot.scheme(fallback))
        executor = ChillerExecutor(db, hot, history=history)
    result = run_benchmark(workload, executor, config)

    total = sum(
        db.store(db.partition_of("accounts", a))
        .read("accounts", a)[0]["balance"]
        for a in range(workload.n_accounts))
    assert total == workload.total_balance(), "money must be conserved!"
    assert result.history.find_cycle() is None, "must be serializable!"
    return result


def main():
    print(f"{'executor':>10} {'throughput':>12} {'abort rate':>11} "
          f"{'p95 latency':>12}")
    for name in ("2pl", "chiller"):
        result = run(name)
        metrics = result.metrics
        print(f"{name:>10} {result.throughput / 1e3:>10.0f}k "
              f"{metrics.abort_rate():>11.2f} "
              f"{metrics.percentile_latency(0.95):>10.1f}us")
    print("\nBoth executions were verified serializable and "
          "balance-conserving.")


if __name__ == "__main__":
    main()
