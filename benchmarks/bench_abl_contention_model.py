"""Validation of the Section 4.1 contention model against measurement.

The partitioner trusts ``Pc = 1 - e^{-lw} - lw e^{-lw} e^{-lr}`` to rank
records by conflict risk.  Here we run a skewed bank workload under
2PL, *measure* each hot account's NO_WAIT conflict rate at the lock
table, and check that the model's ranking agrees with reality: records
the model calls hotter do conflict more.
"""

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, run_benchmark
from repro.core import StatsService, sample_from_request
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, TwoPLExecutor
from repro.workloads.bank import BankWorkload

HOT = 6


def run_and_compare():
    workload = BankWorkload(n_accounts=120, hot_accounts=HOT,
                            hot_probability=0.6)
    config = RunConfig(n_partitions=2, concurrent_per_engine=4,
                       horizon_us=8_000.0, warmup_us=0.0, seed=9,
                       n_replicas=0)
    cluster = Cluster(config.n_partitions)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, Catalog(2, HashScheme(2)), workload.tables(),
                  registry, n_replicas=0, track_spans=True)
    workload.populate(db.loader())
    result = run_benchmark(workload, TwoPLExecutor(db), config)

    # model prediction from a fresh trace of the same distribution
    stats = StatsService(sample_rate=1.0, lock_window_us=8.0)
    from repro._util import make_rng
    rng = make_rng(9, "model")
    for _ in range(2000):
        stats.record(sample_from_request(registry,
                                         workload.next_request(0, rng)))
    predicted = stats.likelihoods_from_txn_rate(
        txns_per_second=result.throughput)

    rows = []
    for account in range(HOT + 4):
        rid = ("accounts", account)
        pid = db.partition_of("accounts", account)
        measured = db.store(pid).spans.conflict_rate("accounts", account)
        rows.append((account, predicted.get(rid, 0.0), measured))
    return rows


def test_model_ranking_matches_measured_conflicts(once):
    rows = once(run_and_compare)
    print(f"\n{'account':>8} {'predicted Pc':>13} {'measured':>9}")
    for account, predicted, measured in rows:
        print(f"{account:>8} {predicted:>13.4f} {measured:>9.4f}")
    hot_predicted = [p for a, p, m in rows if a < HOT]
    cold_predicted = [p for a, p, m in rows if a >= HOT]
    hot_measured = [m for a, p, m in rows if a < HOT]
    cold_measured = [m for a, p, m in rows if a >= HOT]
    # the model separates hot from cold, and so does reality
    assert min(hot_predicted) > max(cold_predicted)
    assert (sum(hot_measured) / len(hot_measured)
            > sum(cold_measured) / max(1, len(cold_measured)))
