"""Tracing through the harness: sim runs end to end with trace=True.

The fast (sim-backend) half of the observability acceptance: spans are
collected and harvested into ``metrics.trace``, exemplars attribute
tail latency to a dominant phase, the Perfetto export file is written,
and — the load-bearing guarantee — tracing never moves a simulator
event.  The mp half (cross-process stitching on a traced fleet) is
``tests/sim/test_mp_runtime.py::test_tpcc_cell_runs_on_mp_backend``;
the cost of tracing is the yardstick's ``obs.trace_overhead_ratio``.
"""

import dataclasses
import json
import re

from repro.analysis import ProcedureRegistry
from repro.bench import RunConfig, experiments, run_benchmark
from repro.obs import NOOP_TRACER, PHASES, tracer
from repro.partitioning import HashScheme
from repro.sim import Cluster
from repro.storage import Catalog
from repro.txn import Database, TwoPLExecutor
from repro.workloads.bank import BankWorkload


def build(workload, config):
    cluster = Cluster(config.n_partitions, config.doorbell_batching)
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    db = Database(cluster, Catalog(config.n_partitions,
                                   HashScheme(config.n_partitions)),
                  workload.tables(), registry,
                  n_replicas=config.n_replicas)
    workload.populate(db.loader())
    return db


def run_bank(**overrides):
    defaults = dict(n_partitions=2, concurrent_per_engine=2,
                    horizon_us=2_000.0, warmup_us=0.0, n_replicas=0)
    defaults.update(overrides)
    config = RunConfig(**defaults)
    workload = BankWorkload(n_accounts=50)
    db = build(workload, config)
    return run_benchmark(workload, TwoPLExecutor(db), config)


def test_tracing_off_allocates_nothing():
    result = run_bank()
    assert result.metrics.trace is None
    assert result.database.tracer is NOOP_TRACER
    summary = result.perf_summary()
    assert "trace" not in summary and "exemplars" not in summary


def test_tracing_collects_phase_spans_and_exemplars():
    result = run_bank(trace=True)
    trace = result.metrics.trace
    assert trace is not None and len(trace.spans) > 0
    assert trace.dropped == 0
    assert {span[4] for span in trace.spans} <= set(PHASES)
    assert {span[4] for span in trace.spans} >= {"lock", "commit"}

    summary = result.perf_summary()
    assert summary["trace"]["spans"] == len(trace.spans)
    rows = summary["exemplars"]
    assert set(rows) == {"home-0", "home-1"}
    for tenant_rows in rows.values():
        # slowest-first, each attributed to a phase on the critical path
        latencies = [row["latency_us"] for row in tenant_rows]
        assert latencies == sorted(latencies, reverse=True)
        assert all(row["dominant_phase"] in PHASES for row in tenant_rows)


def test_a_dropped_span_warning_names_only_what_a_user_can_set(
        monkeypatch, capsys):
    """The hint may name only flags and fields a user can set (it once
    said "raise the tracer ring capacity", which nothing reaches)."""
    monkeypatch.setattr(tracer, "RING_CAPACITY", 4)
    result = run_bank(trace=True)
    assert result.metrics.trace.dropped > 0
    hint = capsys.readouterr().err
    assert "span(s) dropped" in hint
    flags = set(re.findall(r"--[a-z][a-z-]*", hint))
    fields = set(re.findall(r"RunConfig\.(\w+)", hint))
    assert flags == {"--trace-sample"} and fields == {"trace_sample"}
    parser_flags = {option for action in experiments.build_parser()._actions
                    for option in action.option_strings}
    assert flags <= parser_flags
    assert fields <= {spec.name for spec in dataclasses.fields(RunConfig)}


def test_tracing_does_not_perturb_the_sim():
    def digest(result):
        metrics = result.metrics
        return (metrics.commits, metrics.aborts, metrics.attempts,
                metrics.events_processed, result.end_time)

    assert digest(run_bank()) == digest(run_bank(trace=True))


def test_sampling_traces_a_subset():
    full = run_bank(trace=True).metrics.trace
    sampled = run_bank(trace=True, trace_sample=4).metrics.trace
    n_full = full.summary()["traces"]
    n_sampled = sampled.summary()["traces"]
    assert 0 < n_sampled < n_full


def test_trace_out_writes_perfetto_json(tmp_path):
    path = tmp_path / "run.trace.json"
    result = run_bank(trace=True, trace_out=str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == len(result.metrics.trace.spans)
    event = doc["traceEvents"][0]
    assert event["ph"] == "X" and event["name"] in PHASES
    assert doc["otherData"]["dropped_spans"] == 0


def test_open_loop_exemplars_are_per_tenant():
    # conflict-aware admission defers hot-key arrivals, so this cell
    # also exercises the queue_wait span (fifo admits at the arrival
    # instant and legitimately records no waiting)
    result = run_bank(trace=True, arrivals="tenants",
                      offered_load=400_000.0, horizon_us=4_000.0,
                      scheduler="conflict")
    trace = result.metrics.trace
    assert trace is not None and trace.exemplars
    # open-loop exemplars key by traffic tenant, not by home engine
    assert not any(t.startswith("home-") for t in trace.exemplars)
    phases = {span[4] for span in trace.spans}
    assert "queue_wait" in phases
