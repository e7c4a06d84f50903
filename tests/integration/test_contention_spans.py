"""Direct measurement of the paper's core quantity: contention spans.

Fig. 3 argues the whole case: under 2PL+2PC a hot record stays locked
for >= 2 message delays regardless of hotness, while two-region
execution shrinks the span to a local critical section.  We track lock
hold times on the TPC-C warehouse and district rows and check the
ratio.
"""

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run
from repro.storage import ContentionSpanTracker
from repro.workloads.tpcc import DISTRICTS_PER_WAREHOUSE


def mean_hot_span(executor_name, seed=3):
    config = RunConfig(n_partitions=2, concurrent_per_engine=2,
                       horizon_us=4_000.0, warmup_us=0.0, seed=seed,
                       n_replicas=0)
    run = make_tpcc_run(executor_name, config)
    db = run.database
    for server in db.cluster.servers:  # what Database(track_spans=True) sets
        server.storage.spans = ContentionSpanTracker()
    run.run()
    spans = []
    for w in range(run.workload.scale.n_warehouses):
        pid = db.partition_of("warehouse", w)
        tracker = db.store(pid).spans
        if tracker.acquisitions.get(("warehouse", w)):
            spans.append(tracker.mean_span("warehouse", w))
        for d in range(DISTRICTS_PER_WAREHOUSE):
            if tracker.acquisitions.get(("district", (w, d))):
                spans.append(tracker.mean_span("district", (w, d)))
    assert spans, "hot records must have been locked at least once"
    return sum(spans) / len(spans)


def test_two_region_shrinks_hot_contention_spans():
    span_2pl = mean_hot_span("2pl")
    span_chiller = mean_hot_span("chiller")
    # the paper's mechanism: an order-of-magnitude-ish reduction
    assert span_chiller < 0.35 * span_2pl, (
        f"chiller span {span_chiller:.2f}us should be far below "
        f"2PL's {span_2pl:.2f}us")


def test_2pl_span_is_at_least_a_round_trip():
    """Fig. 3a: with piggybacked prepare, the span covers at least the
    commit message delay for remote participants — and for local TPC-C
    transactions at least the local execution rounds."""
    span = mean_hot_span("2pl")
    assert span > 1.0  # microseconds; local rounds + queueing
