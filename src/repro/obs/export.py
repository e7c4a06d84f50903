"""Trace reduction and export: triage tooling over harvested spans.

Spans come out of :meth:`~repro.obs.tracer.Tracer.harvest` as flat
tuples ``(trace, txn_id, attempt, server, phase, t_start_us,
t_end_us, outcome)``.  This module turns them into the three artefacts
the tail-latency workflow needs:

* :func:`trace_tree` / :func:`critical_path` — group a run's spans by
  trace id and attribute each trace's time to its dominant phase,
  which is the one-line answer to "why was this commit slow?".
* :func:`exemplar_summary` — join the open-loop dispatcher's
  slowest-K exemplar tags against the span log, giving
  ``perf_summary()["exemplars"]`` a per-phase breakdown of exactly
  the requests that made p99/p999.
* :func:`to_trace_events` / :func:`write_trace_json` — Chrome/Perfetto
  ``trace_event`` JSON ("X" complete events; pid = server, tid =
  trace id) so ``--trace-out`` files load directly in
  ``ui.perfetto.dev`` or ``chrome://tracing``.
"""

from __future__ import annotations

import json

from .tracer import TraceData

# span tuple field offsets
_TRACE, _TXN, _ATTEMPT, _SERVER, _PHASE, _T0, _T1, _OUTCOME = range(8)


def trace_tree(spans) -> dict[int, list]:
    """Group spans by trace id; each trace's spans sorted by start."""
    tree: dict[int, list] = {}
    for span in spans:
        tree.setdefault(span[_TRACE], []).append(span)
    for entries in tree.values():
        entries.sort(key=lambda s: (s[_T0], s[_T1]))
    return tree


def critical_path(spans) -> dict:
    """Attribute one trace's latency to its phases.

    Returns ``{"phases": {phase: total_us}, "dominant_phase": str,
    "span_count": int, "servers": [ids]}``.  Wall overlap between
    servers is *not* subtracted — the figure is "where was work (or
    waiting) booked", the right attribution for lock/queue triage.
    """
    phases: dict[str, float] = {}
    servers = set()
    for span in spans:
        phases[span[_PHASE]] = (phases.get(span[_PHASE], 0.0)
                                + (span[_T1] - span[_T0]))
        servers.add(span[_SERVER])
    dominant = max(phases, key=phases.get) if phases else None
    return {"phases": {k: round(v, 3) for k, v in phases.items()},
            "dominant_phase": dominant,
            "span_count": len(spans),
            "servers": sorted(servers)}


def exemplar_summary(trace_data: TraceData) -> dict:
    """Per-tenant slowest-K traces, each with its phase breakdown
    (folded mp parts hold K candidates per worker: trimmed here)."""
    tree = trace_tree(trace_data.spans)
    out: dict[str, list] = {}
    for tenant, entries in sorted(trace_data.exemplars.items()):
        rows = []
        slowest = sorted(entries, key=lambda e: -e[0])
        for latency_us, trace in slowest[:trace_data.exemplar_k]:
            row = {"trace": trace, "latency_us": round(latency_us, 3)}
            row.update(critical_path(tree.get(trace, ())))
            rows.append(row)
        out[tenant] = rows
    return out


def to_trace_events(spans) -> list[dict]:
    """Chrome ``trace_event`` "X" (complete) events, one per span."""
    events = []
    for span in spans:
        events.append({
            "name": span[_PHASE],
            "cat": "txn",
            "ph": "X",
            "ts": span[_T0],
            "dur": max(0.0, span[_T1] - span[_T0]),
            "pid": span[_SERVER],
            "tid": span[_TRACE],
            "args": {"txn_id": span[_TXN], "attempt": span[_ATTEMPT],
                     "outcome": span[_OUTCOME]},
        })
    return events


def write_trace_json(trace_data: TraceData, path: str) -> None:
    """Write a Perfetto-loadable ``{"traceEvents": [...]}`` file."""
    payload = {
        "traceEvents": to_trace_events(trace_data.spans),
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_spans": trace_data.dropped,
            "exemplars": exemplar_summary(trace_data),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
