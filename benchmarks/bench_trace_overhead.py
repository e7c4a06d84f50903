"""Tracing overhead: bit-identical on sim, bounded cost on mp.

The observability layer (:mod:`repro.obs`) rides the hottest paths in
the codebase — every executor phase, the commit FSM, the wire loop —
so its cost contract is part of the perf surface and gets its own
bench:

* **Sim cell** — the same TPC-C cell three times: tracing off twice
  (determinism floor) and tracing on.  All three must produce the
  *same* commits, aborts, event count, and end time: span recording is
  pure Python bookkeeping (no effects, no RNG draws), so the
  discrete-event stream cannot move.  This is the bit-identical
  guarantee the figure sweeps rely on.

* **mp cell** — the wire-path YCSB workload on real worker processes,
  tracing off vs on (sample_every=1, the worst case: every
  transaction's spans recorded and every hot-verb frame carrying the
  8-byte trace id).  Events/sec here is wall-clock and noisy on shared
  CI hardware, so the cell asserts a conservative floor and *records*
  the measured ratio; set ``REPRO_TRACE_TARGET=0.95`` on dedicated
  hardware to enforce the <5% overhead target as a hard assertion.
  The tracing-off rate is the regression-tracked figure (see
  BENCH_BASELINE.json).

CLI (CI smoke runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --quick
"""

from __future__ import annotations

import os
import sys

from repro.bench import RunConfig, install_summary_json
from repro.bench.setups import make_tpcc_run, make_ycsb_run
from repro.obs.export import trace_tree
from repro.workloads.ycsb import YcsbWorkload


def sim_cell_config(trace: bool) -> RunConfig:
    return RunConfig(n_partitions=4, concurrent_per_engine=4,
                     horizon_us=5_000.0, warmup_us=500.0, seed=3,
                     n_replicas=1, trace=trace)


def run_sim_cell(trace: bool):
    return make_tpcc_run("2pl", sim_cell_config(trace)).run()


def sim_digest(result) -> tuple:
    """Everything tracing could have perturbed, in one comparable
    tuple: the committed/aborted work, the simulator's event count,
    and the exact quiescence time."""
    metrics = result.metrics
    return (metrics.commits, metrics.aborts, metrics.attempts,
            metrics.events_processed, result.end_time)


def mp_cell_config(trace: bool, quick: bool = False) -> RunConfig:
    return RunConfig(n_partitions=2, concurrent_per_engine=4,
                     horizon_us=150_000.0 if quick else 400_000.0,
                     warmup_us=0.0, seed=11, n_replicas=1, backend="mp",
                     trace=trace, run_timeout_s=180.0)


def run_mp_cell(trace: bool, quick: bool = False):
    workload = YcsbWorkload(n_keys=2_000, reads_per_txn=8,
                            writes_per_txn=2)
    return make_ycsb_run("2pl", mp_cell_config(trace, quick),
                         workload=workload).run()


def main(argv=None) -> None:
    args = list(sys.argv[1:] if argv is None else argv)
    args, flush_summaries = install_summary_json(args)
    quick = "--quick" in args
    try:
        off = sim_digest(run_sim_cell(False))
        on_result = run_sim_cell(True)
        on = sim_digest(on_result)
        spans = len(on_result.metrics.trace.spans)
        verdict = "IDENTICAL" if off == on else "DIVERGED"
        print(f"sim cell tracing off vs on: {verdict} "
              f"(commits={off[0]}, events={off[3]}, "
              f"{spans} spans recorded)")

        base = run_mp_cell(False, quick=quick)
        traced = run_mp_cell(True, quick=quick)
        base_rate = base.metrics.events_per_wall_second()
        traced_rate = traced.metrics.events_per_wall_second()
        print(f"mp cell events/s: off {base_rate:,.0f} "
              f"on {traced_rate:,.0f} "
              f"({traced_rate / base_rate:.3f}x, "
              f"{len(traced.metrics.trace.spans)} spans on "
              f"{os.cpu_count()} cpu(s))")
    finally:
        flush_summaries()


# -- pytest-benchmark cells (perf-tracked in BENCH_BASELINE.json) -------------

def test_sim_tracing_is_bit_identical(benchmark):
    """The zero-perturbation cell: tracing on must not move a single
    simulator event — same commits, aborts, attempts, event count, and
    quiescence time as two independent tracing-off runs."""
    off_a = sim_digest(run_sim_cell(False))
    off_b = sim_digest(run_sim_cell(False))
    traced = benchmark.pedantic(run_sim_cell, args=(True,),
                                rounds=1, iterations=1)
    on = sim_digest(traced)

    assert off_a == off_b, \
        f"sim cell is not deterministic on its own: {off_a} vs {off_b}"
    assert on == off_a, \
        f"tracing perturbed the sim event stream: {on} vs {off_a}"

    trace = traced.metrics.trace
    assert trace is not None and len(trace.spans) > 0, \
        "the traced run must actually record spans"
    phases = {span[4] for span in trace.spans}
    assert "lock" in phases and "commit" in phases, phases

    benchmark.extra_info.update({
        "sim_commits": on[0],
        "sim_events": on[3],
        "spans_recorded": len(trace.spans),
        "spans_dropped": trace.dropped,
    })


def test_mp_tracing_overhead(benchmark):
    """The cost cell: worst-case tracing (every txn sampled, trace ids
    on every hot-verb frame) against the identical tracing-off run.
    The off rate is the perf-tracked figure; the on/off ratio is
    recorded, with a conservative floor here and a hard <5% target
    behind ``REPRO_TRACE_TARGET`` for dedicated hardware."""
    base = run_mp_cell(False, quick=True)
    traced = benchmark.pedantic(run_mp_cell, args=(True,),
                                kwargs={"quick": True},
                                rounds=1, iterations=1)

    assert base.metrics.commits > 0 and traced.metrics.commits > 0
    assert base.metrics.trace is None, \
        "tracing off must not allocate trace state"
    trace = traced.metrics.trace
    assert trace is not None and len(trace.spans) > 0

    # the cross-process guarantee: coordinator- and participant-side
    # spans of one transaction stitch under one trace id
    tree = trace_tree(trace.spans)
    stitched = [t for t, spans in tree.items()
                if len({span[3] for span in spans}) > 1]
    assert stitched, \
        "no trace crossed the worker boundary in a 2-partition cell"

    base_rate = base.metrics.events_per_wall_second()
    traced_rate = traced.metrics.events_per_wall_second()
    ratio = traced_rate / base_rate
    assert ratio >= 0.5, (
        f"tracing collapsed mp throughput to {ratio:.2f}x "
        f"({traced_rate:,.0f} vs {base_rate:,.0f} events/s)")
    target = float(os.environ.get("REPRO_TRACE_TARGET", "0") or 0.0)
    if target:
        assert ratio >= target, (
            f"tracing-on reached {ratio:.2f}x of tracing-off, target "
            f"{target:.2f}x ({traced_rate:,.0f} vs {base_rate:,.0f} "
            f"events/s on {os.cpu_count()} cpus)")

    benchmark.extra_info.update({
        "tracing_off_events_per_second": round(base_rate),
        "tracing_on_events_per_second": round(traced_rate),
        "tracing_on_vs_off": round(ratio, 3),
        "spans_recorded": len(trace.spans),
        "traces_stitched_across_workers": len(stitched),
        "cpus": os.cpu_count(),
    })


if __name__ == "__main__":
    main()
