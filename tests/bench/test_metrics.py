"""Unit tests for the metrics aggregation."""

import pytest

from repro.bench.metrics import Metrics
from repro.txn.common import AbortReason, Outcome


def outcome(txn_id=1, proc="p", committed=True, reason=None,
            start=0.0, end=10.0, partitions=(0,), two_region=False):
    return Outcome(txn_id=txn_id, proc=proc, committed=committed,
                   reason=reason, start=start, end=end,
                   partitions=frozenset(partitions),
                   used_two_region=two_region)


def test_counts():
    m = Metrics()
    m.add(outcome(1))
    m.add(outcome(2, committed=False,
                  reason=AbortReason.LOCK_CONFLICT))
    assert m.attempts == 2
    assert m.commits == 1
    assert m.aborts == 1


def test_abort_rate_excludes_app_aborts_by_default():
    m = Metrics()
    m.add(outcome(1))
    m.add(outcome(2, committed=False, reason=AbortReason.LOGICAL))
    m.add(outcome(3, committed=False, reason=AbortReason.READ_MISS))
    m.add(outcome(4, committed=False,
                  reason=AbortReason.LOCK_CONFLICT))
    assert m.abort_rate() == pytest.approx(0.5)
    assert m.abort_rate(include_app_aborts=True) == pytest.approx(0.75)


def test_abort_rate_per_proc():
    m = Metrics()
    m.add(outcome(1, proc="a"))
    m.add(outcome(2, proc="b", committed=False,
                  reason=AbortReason.LOCK_CONFLICT))
    assert m.abort_rate("a") == 0.0
    assert m.abort_rate("b") == 1.0


def test_throughput_window():
    m = Metrics()
    for i, end in enumerate((1_000.0, 5_000.0, 9_000.0, 20_000.0)):
        m.add(outcome(i, end=end))
    # window [0, 10_000us) = 0.01s: 3 commits -> 300 txns/sec
    assert m.throughput(0.0, 10_000.0) == pytest.approx(300.0)


def test_throughput_invalid_window():
    with pytest.raises(ValueError):
        Metrics().throughput(5.0, 5.0)


def test_distributed_and_two_region_ratios():
    m = Metrics()
    m.add(outcome(1, partitions=(0,)))
    m.add(outcome(2, partitions=(0, 1), two_region=True))
    m.add(outcome(3, committed=False,
                  reason=AbortReason.LOCK_CONFLICT, partitions=(0, 1)))
    assert m.distributed_ratio() == pytest.approx(0.5)
    assert m.two_region_ratio() == pytest.approx(0.5)


def test_latency_statistics():
    m = Metrics()
    for i, end in enumerate((10.0, 20.0, 30.0, 40.0)):
        m.add(outcome(i, start=0.0, end=end))
    assert m.latencies() == [10.0, 20.0, 30.0, 40.0]
    assert m.percentile_latency(0.5) == pytest.approx(30.0)
    assert m.percentile_latency(0.99) == pytest.approx(40.0)


def test_commit_share():
    m = Metrics()
    m.add(outcome(1, proc="a"))
    m.add(outcome(2, proc="a"))
    m.add(outcome(3, proc="b"))
    shares = m.commit_share()
    assert shares["a"] == pytest.approx(2 / 3)
    assert shares["b"] == pytest.approx(1 / 3)


def test_empty_metrics_are_safe():
    m = Metrics()
    assert m.abort_rate() == 0.0
    assert m.distributed_ratio() == 0.0
    assert m.percentile_latency(0.5) == 0.0
    assert m.commit_share() == {}
