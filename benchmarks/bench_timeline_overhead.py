"""Timeline overhead: bit-identical on sim, bounded cost on mp.

The live metrics timeline (:mod:`repro.obs.timeline`) hooks the
simulator's per-event probe and the mp workers' wall-clock timers, so
its cost contract is part of the perf surface and gets its own bench,
mirroring ``bench_trace_overhead.py``:

* **Sim cell** — the same TPC-C cell three times: timeline off twice
  (determinism floor) and timeline on.  All three must produce the
  *same* commits, aborts, event count, and end time: sampling is pure
  Python bookkeeping (no effects, no RNG draws), so the discrete-event
  stream cannot move.  This is the bit-identical guarantee the figure
  sweeps rely on.

* **mp cell** — the wire-path YCSB workload on real worker processes,
  timeline off vs on (50ms sampling plus live shipping of every row
  over the control pipe).  Events/sec here is wall-clock and noisy on
  shared CI hardware, so the cell asserts a conservative floor and
  *records* the measured ratio; set ``REPRO_TIMELINE_TARGET=0.95`` on
  dedicated hardware to enforce the <5% overhead target as a hard
  assertion.  The timeline-off rate is the regression-tracked figure,
  and the ``timeline_*`` count cells (dropped samples, stall count)
  are zero-baseline invariants (see BENCH_BASELINE.json).

CLI (CI smoke runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_timeline_overhead.py
    PYTHONPATH=src python benchmarks/bench_timeline_overhead.py --quick
"""

from __future__ import annotations

import os
import sys

from repro.bench import RunConfig, install_summary_json
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.workloads.ycsb import YcsbWorkload


def sim_cell_config(timeline: bool) -> RunConfig:
    return RunConfig(n_partitions=4, concurrent_per_engine=4,
                     horizon_us=5_000.0, warmup_us=500.0, seed=3,
                     n_replicas=1,
                     metrics_interval=500.0 if timeline else None)


def run_sim_cell(timeline: bool):
    return make_tpcc_run("2pl", sim_cell_config(timeline)).run()


def sim_digest(result) -> tuple:
    """Everything sampling could have perturbed, in one comparable
    tuple: the committed/aborted work, the simulator's event count,
    and the exact quiescence time."""
    metrics = result.metrics
    return (metrics.commits, metrics.aborts, metrics.attempts,
            metrics.events_processed, result.end_time)


def mp_cell_config(timeline: bool, quick: bool = False) -> RunConfig:
    return RunConfig(n_partitions=2, concurrent_per_engine=4,
                     horizon_us=150_000.0 if quick else 400_000.0,
                     warmup_us=0.0, seed=11, n_replicas=1, backend="mp",
                     run_timeout_s=180.0,
                     metrics_interval=50_000.0 if timeline else None)


def run_mp_cell(timeline: bool, quick: bool = False):
    workload = YcsbWorkload(n_keys=2_000, reads_per_txn=8,
                            writes_per_txn=2)
    return make_ycsb_run("2pl", mp_cell_config(timeline, quick),
                         workload=workload).run()


def main(argv=None) -> None:
    args = list(sys.argv[1:] if argv is None else argv)
    args, flush_summaries = install_summary_json(args)
    quick = "--quick" in args
    try:
        off = sim_digest(run_sim_cell(False))
        on_result = run_sim_cell(True)
        on = sim_digest(on_result)
        samples = len(on_result.metrics.timeline.rows())
        verdict = "IDENTICAL" if off == on else "DIVERGED"
        print(f"sim cell timeline off vs on: {verdict} "
              f"(commits={off[0]}, events={off[3]}, "
              f"{samples} samples recorded)")

        base = run_mp_cell(False, quick=quick)
        sampled = run_mp_cell(True, quick=quick)
        base_rate = base.metrics.events_per_wall_second()
        sampled_rate = sampled.metrics.events_per_wall_second()
        print(f"mp cell events/s: off {base_rate:,.0f} "
              f"on {sampled_rate:,.0f} "
              f"({sampled_rate / base_rate:.3f}x, "
              f"{len(sampled.metrics.timeline.rows())} samples on "
              f"{os.cpu_count()} cpu(s))")
    finally:
        flush_summaries()


# -- pytest-benchmark cells (perf-tracked in BENCH_BASELINE.json) -------------

def test_sim_timeline_is_bit_identical(benchmark):
    """The zero-perturbation cell: sampling on must not move a single
    simulator event — same commits, aborts, attempts, event count, and
    quiescence time as two independent timeline-off runs."""
    off_a = sim_digest(run_sim_cell(False))
    off_b = sim_digest(run_sim_cell(False))
    sampled = benchmark.pedantic(run_sim_cell, args=(True,),
                                 rounds=1, iterations=1)
    on = sim_digest(sampled)

    assert off_a == off_b, \
        f"sim cell is not deterministic on its own: {off_a} vs {off_b}"
    assert on == off_a, \
        f"sampling perturbed the sim event stream: {on} vs {off_a}"

    timeline = sampled.metrics.timeline
    assert timeline is not None and timeline.rows(), \
        "the sampled run must actually record timeline rows"
    assert timeline.totals()["commits"] == sampled.metrics.commits

    benchmark.extra_info.update({
        "sim_commits": on[0],
        "sim_events": on[3],
        "timeline_recorded_samples": len(timeline.rows()),
        "timeline_dropped_samples": timeline.dropped,
        # deterministic on sim, so the gate is exact: any drift means
        # admission behaviour changed
        "timeline_max_queue_depth": int(
            timeline.gauge_max("max_queue_depth")),
    })


def test_mp_timeline_overhead(benchmark):
    """The cost cell: 50ms sampling with live row shipping against the
    identical timeline-off run.  The off rate is the perf-tracked
    figure; the on/off ratio is recorded, with a conservative floor
    here and a hard <5% target behind ``REPRO_TIMELINE_TARGET`` for
    dedicated hardware."""
    base = run_mp_cell(False, quick=True)
    sampled = benchmark.pedantic(run_mp_cell, args=(True,),
                                 kwargs={"quick": True},
                                 rounds=1, iterations=1)

    assert base.metrics.commits > 0 and sampled.metrics.commits > 0
    assert base.metrics.timeline is None, \
        "timeline off must not allocate timeline state"
    timeline = sampled.metrics.timeline
    assert timeline is not None and timeline.rows()

    # the cross-process guarantee: the parent's merged timeline lands
    # exactly on the workers' final aggregates — live shipping lost
    # nothing and double-counted nothing
    assert timeline.totals()["commits"] == sampled.metrics.commits
    assert timeline.servers() == sorted(
        sampled.metrics.scheduler_stats)
    # a healthy run raises no health events and drops no samples
    stalls = [e for e in timeline.health if e.kind == "stall"]
    assert not stalls, [e.message for e in stalls]

    base_rate = base.metrics.events_per_wall_second()
    sampled_rate = sampled.metrics.events_per_wall_second()
    ratio = sampled_rate / base_rate
    assert ratio >= 0.5, (
        f"sampling collapsed mp throughput to {ratio:.2f}x "
        f"({sampled_rate:,.0f} vs {base_rate:,.0f} events/s)")
    target = float(os.environ.get("REPRO_TIMELINE_TARGET", "0") or 0.0)
    if target:
        assert ratio >= target, (
            f"timeline-on reached {ratio:.2f}x of timeline-off, target "
            f"{target:.2f}x ({sampled_rate:,.0f} vs {base_rate:,.0f} "
            f"events/s on {os.cpu_count()} cpus)")

    benchmark.extra_info.update({
        "timeline_off_events_per_second": round(base_rate),
        "timeline_on_events_per_second": round(sampled_rate),
        "timeline_on_vs_off": round(ratio, 3),
        "timeline_dropped_samples": timeline.dropped,
        "timeline_stall_count": len(stalls),
        "cpus": os.cpu_count(),
    })


if __name__ == "__main__":
    main()
