"""The per-layer metrics of one workload (``run.py --trace 1``).

Four groups, all measured from this directory and none from inside the
program:

1. counters a plain run already exports (``summary.counters``);
2. boundary spans around each layer's public entry points, on one extra
   in-process repeat of a sim cell (``spans.py``);
3. the program's own phase tracer (``RunConfig(trace=True)``) on one
   extra sub-run of the mp cell;
4. kernel probes (``probes.py``), the same on every workload.

A metric that does not apply to the workload reads 0: the layer did no
measured work there.  A metric whose target is gone reads
``probes.MISSING``.
"""

from __future__ import annotations

import os

import measure
import probes
import spans
import summary

PHASES = ("lock", "read", "prepare", "commit", "release", "replicate")

BETTER_HIGHER = frozenset({
    "bench.calib_ops_per_s", "traffic.max_rate_under_slo",
    "core.two_region_ratio"})
"""Per-layer metrics for which more is better (``BENCHMARK.json``)."""


def units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    table = dict(summary.COUNTER_UNITS)
    for layer in spans.LAYERS:
        table[f"{layer}.self_us_per_commit"] = "us"
        table[f"{layer}.calls_per_commit"] = "count"
    table["bench.unattributed_share"] = "ratio"
    table["bench.trace_overhead_ratio"] = "ratio"
    for phase in PHASES:
        table[f"txn.phase.{phase}_us"] = "us"
    table["obs.trace_overhead_ratio"] = "ratio"
    table.update(probes.UNITS)
    return table


def per_layer(adapter, cell, seed: int, seconds: float, out: str | None):
    """(metrics, the runs they came from) for ``run.py``."""
    metrics = dict.fromkeys(units(), 0.0)
    if cell.backend == "sim":
        plain = measure.sim_repeat(adapter, cell, seed)
        recorder = spans.SpanRecorder()
        with spans.installed(recorder):
            traced = measure.sim_repeat(adapter, cell, seed, history=True)
        metrics.update(spans.layer_metrics(recorder, traced["commits"],
                                           traced["slowdown"]))
        metrics["bench.trace_overhead_ratio"] = (
            (traced["cpu_s"] / traced["slowdown"])
            / (plain["cpu_s"] / plain["slowdown"]))
        if out:
            recorder.write_chrome_trace(
                os.path.splitext(out)[0] + ".spans.json")
    else:
        share = seconds / measure.MP_SUB_RUNS
        plain = measure.mp_sub_run(adapter, cell, seed, share)
        traced = measure.mp_sub_run(adapter, cell, seed, share,
                                    phase_trace=True)
        for phase in PHASES:
            metrics[f"txn.phase.{phase}_us"] = (
                traced["phase_us"].get(phase, 0.0) / traced["slowdown"])
        metrics["obs.trace_overhead_ratio"] = (
            (traced["cpu_s"] / traced["commits"] / traced["slowdown"])
            / (plain["cpu_s"] / plain["commits"] / plain["slowdown"]))
    metrics.update(summary.counters(plain))
    metrics.update(probes.run_all(adapter, seed))
    return metrics, [plain, traced]
