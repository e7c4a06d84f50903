"""Unit tests for the log2-bucketed latency histogram.

The two properties the open-loop metrics rest on: folding parts in any
order equals one pass over all the values (mp workers ship parts home;
the algebra itself is ``tests/test_stats_fold.py``'s property), and
quantiles stay within the layout's ~1.6% relative error bound at any
magnitude.
"""

import math
import pickle
import random

from repro._stats import folded
from repro.bench.metrics import LatencyHistogram, Metrics, OpenLoopStats


def hist(values) -> LatencyHistogram:
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    return h


def exact_percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def test_small_values_are_exact():
    values = list(range(32)) * 3
    h = hist(values)
    assert h.n == 96
    for q in (0.5, 0.9, 0.99):
        assert h.percentile(q) == exact_percentile(values, q)
    assert h.max_us == 31


def test_percentile_relative_error_bound():
    rng = random.Random(5)
    # log-uniform over five orders of magnitude
    values = [int(10 ** rng.uniform(0, 6)) for _ in range(20_000)]
    h = hist(values)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = exact_percentile(values, q)
        got = h.percentile(q)
        assert abs(got - exact) <= 0.017 * exact + 1.0, (
            f"q={q}: {got} vs exact {exact}")
    assert abs(h.mean_us() - sum(values) / len(values)) < 1e-6


def test_merge_matches_single_pass():
    rng = random.Random(9)
    values = [int(rng.expovariate(1 / 500.0)) for _ in range(5_000)]
    whole = hist(values)
    parts = [hist(values[i::4]) for i in range(4)]
    merged = folded(LatencyHistogram, parts)
    assert merged.counts == whole.counts
    assert merged.n == whole.n
    assert merged.max_us == whole.max_us
    assert merged.percentile(0.99) == whole.percentile(0.99)


def test_empty_histogram_summary():
    h = LatencyHistogram()
    assert h.percentile(0.99) == 0.0
    assert h.summary()["count"] == 0
    assert h.mean_us() == 0.0


def test_histogram_pickles():
    h = hist([3, 700, 90_000])
    clone = pickle.loads(pickle.dumps(h))
    assert clone.counts == h.counts
    assert clone.summary() == h.summary()


def test_open_loop_stats_merge_folds_tenants():
    a = OpenLoopStats()
    gold = a.tenant("gold", deadline_us=1_000.0)
    gold.scheduled, gold.committed, gold.in_slo = 5, 4, 3
    gold.histogram.record(100)

    b = OpenLoopStats()
    gold_b = b.tenant("gold", deadline_us=1_000.0)
    gold_b.scheduled, gold_b.shed = 2, 2
    b.tenant("standard", deadline_us=4_000.0).scheduled = 7

    merged = folded(OpenLoopStats, [a, b])
    assert merged.tenants["gold"].scheduled == 7
    assert merged.tenants["gold"].shed == 2
    assert merged.tenants["gold"].in_slo == 3
    assert merged.tenants["gold"].histogram.n == 1
    assert merged.tenants["standard"].scheduled == 7
    assert merged.scheduled == 14
    # attainment counts shed arrivals against the tenant
    assert merged.tenants["gold"].attainment() == 3 / 7


def test_metrics_merged_folds_open_loop_parts():
    part1 = Metrics()
    part1.open_loop = OpenLoopStats()
    part1.open_loop.tenant("all").scheduled = 3
    part2 = Metrics()
    part2.open_loop = OpenLoopStats()
    part2.open_loop.tenant("all").scheduled = 4
    closed = Metrics()  # a worker with no open-loop homes

    merged = Metrics.merged([part1, part2, closed])
    assert merged.open_loop.scheduled == 7
    assert Metrics.merged([closed]).open_loop is None
