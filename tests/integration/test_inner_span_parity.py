"""An inner region that checks locks counts in the span tracker exactly
as one that took and released them in its one event did.

The totals and the digest of every per-record entry were recorded on
the commit before inner regions stopped taking locks: each check is one
attempt (a refusal one conflict), and each distinct lock word granted
one zero-length hold.
"""

import hashlib

from repro.bench import RunConfig
from repro.bench.setups import make_tpcc_run
from repro.storage import ContentionSpanTracker

FIELDS = ("attempts", "conflicts", "acquisitions", "total_span")

RECORDED = ({"attempts": 26_721, "conflicts": 17, "acquisitions": 26_684,
             "total_span": 10_323.46000000204},
            "4ff8fa3b735605fb7b3def4ec09bf71d7cc8776ff2f659a0e6cf21023e58abe1")


def tracked_tpcc_chiller_run():
    """The TPC-C benchmark cell, shrunk, with a tracker on every store."""
    config = RunConfig(n_partitions=4, concurrent_per_engine=8,
                       horizon_us=2_000.0, warmup_us=50.0, seed=11,
                       n_replicas=2)
    run = make_tpcc_run("chiller", config)
    for server in run.database.cluster.servers:
        server.storage.spans = ContentionSpanTracker()
    return run


def test_tracker_totals_match_the_lock_taking_inner_region():
    run = tracked_tpcc_chiller_run()
    result = run.run()
    assert result.metrics.commits == 1473
    totals = dict.fromkeys(FIELDS, 0)
    digest = hashlib.sha256()
    db = run.database
    for pid in range(db.n_partitions):
        spans = db.store(pid).spans
        for field in FIELDS:
            entries = getattr(spans, field)
            totals[field] += sum(entries.values())
            digest.update(repr(sorted(entries.items(), key=repr)).encode())
    assert (totals, digest.hexdigest()) == RECORDED
