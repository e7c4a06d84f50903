"""Turn raw observations into named metrics.  Imports nothing from
``repro``: everything here works on the plain dicts ``adapter.observe``
returns, so the arithmetic is testable on hand-made inputs.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "cpu_us_per_commit": ("us", "lower"),
    "txn_per_s": ("1/s", "higher"),
    "p50_us": ("us", "lower"),
    "commit_share": ("ratio", "higher"),
    "slo_ok_share": ("ratio", "higher"),
    "completed_share": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all
    three."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def shares(obs: dict) -> dict[str, float]:
    """The three outcome ratios of one run.

    ``commit_share`` is commits / attempts that could commit (1 - the
    paper's abort rate; by-spec rollbacks are not attempts),
    ``slo_ok_share`` is requests completed within the latency limit /
    requests, ``completed_share`` is requests neither shed nor failed /
    requests.  A shed or failed request misses every limit.
    """
    attempts = obs["commits"] + obs["contention_aborts"]
    requests = obs["requests"]
    return {
        "commit_share": obs["commits"] / attempts,
        "slo_ok_share": obs["in_slo"] / requests,
        "completed_share": (requests - obs["failed"]) / requests,
    }


EXACT_SIM_KEYS = (
    "commits", "app_aborts", "contention_aborts", "cutoff_aborts",
    "txn_per_s", "requests", "failed", "shed", "in_slo", "events",
    "remote_ops", "model_bytes", "distributed", "two_region",
    "sched_deferrals", "sched_sheds", "sched_queue_wait_us",
    "sched_max_queue_depth", "arrival_p50_us", "arrival_p99_us")
"""Observations that a sim repeat with the same seed must reproduce to
the last digit (plus the full list of commit latencies)."""


def exactness_problems(repeats: list[dict]) -> list[str]:
    """Differences between sim repeats that should be bit-identical."""
    problems = []
    first = repeats[0]
    for index, other in enumerate(repeats[1:], start=2):
        for key in EXACT_SIM_KEYS:
            if first[key] != other[key]:
                problems.append(f"repeat {index}: {key} = {other[key]!r}, "
                                f"repeat 1 had {first[key]!r}")
        if first["commit_latencies_us"] != other["commit_latencies_us"]:
            problems.append(f"repeat {index}: commit latencies differ "
                            f"from repeat 1")
    return problems


COUNTER_UNITS = {
    "sim.events_per_commit": "count",
    "sim.remote_ops_per_commit": "count",
    "sim.model_bytes_per_commit": "B",
    "sim.mp.wire_bytes_per_commit": "B",
    "txn.attempts_per_commit": "count",
    "txn.abort_rate": "ratio",
    "txn.distributed_ratio": "ratio",
    "txn.p99_us": "us",
    "core.two_region_ratio": "ratio",
    "sched.deferrals_per_request": "count",
    "sched.queue_wait_us_mean": "us",
    "sched.shed_share": "ratio",
    "sched.max_queue_depth": "count",
    "traffic.arrival_p50_us": "us",
    "traffic.arrival_p99_us": "us",
    "storage.wal.appends_per_commit": "count",
    "storage.wal.fsyncs_per_commit": "count",
    "storage.wal.bytes_per_commit": "B",
}


def counters(obs: dict) -> dict[str, float]:
    """Per-layer counters a timed run already exports (group 1)."""
    commits = obs["commits"]
    attempts = commits + obs["contention_aborts"]
    requests = max(1, obs["requests"])
    latencies = sorted(obs["commit_latencies_us"])
    return {
        "sim.events_per_commit": obs["events"] / commits,
        "sim.remote_ops_per_commit": obs["remote_ops"] / commits,
        "sim.model_bytes_per_commit": obs["model_bytes"] / commits,
        "sim.mp.wire_bytes_per_commit": obs["wire_bytes"] / commits,
        "txn.attempts_per_commit": attempts / commits,
        "txn.abort_rate": obs["contention_aborts"] / attempts,
        "txn.distributed_ratio": obs["distributed"] / commits,
        "txn.p99_us": percentile(latencies, 0.99),
        "core.two_region_ratio": obs["two_region"] / commits,
        "sched.deferrals_per_request": obs["sched_deferrals"] / requests,
        "sched.queue_wait_us_mean": obs["sched_queue_wait_us"] / requests,
        "sched.shed_share": obs["shed"] / requests,
        "sched.max_queue_depth": obs["sched_max_queue_depth"],
        "traffic.arrival_p50_us": obs["arrival_p50_us"],
        "traffic.arrival_p99_us": obs["arrival_p99_us"],
        "storage.wal.appends_per_commit": obs["wal_appends"] / commits,
        "storage.wal.fsyncs_per_commit": obs["wal_fsyncs"] / commits,
        "storage.wal.bytes_per_commit": obs["wal_bytes"] / commits,
    }
