"""Observability: tracing, live metrics timeline, health, exposition.

See :mod:`repro.obs.tracer` for the ring-buffer span log,
:mod:`repro.obs.export` for critical-path reduction and Perfetto
export, :mod:`repro.obs.timeline` for the periodic delta sampler and
merged per-server timeline, :mod:`repro.obs.health` for the declarative
watchdog, :mod:`repro.obs.expose` for Prometheus/CSV rendering, and
:mod:`repro.obs.sampler` for the per-process stack sampler a traced run
arms.  The rest of the codebase imports :data:`NOOP_TRACER` (the
disabled fast path) and guards every emission site on
``tracer.enabled``; the timeline is equally opt-in via
``RunConfig(metrics_interval=...)``.
"""

from .tracer import (NOOP_TRACER, PHASES, VERB_PHASES, SpanRing,
                     TraceData, Tracer)
from .export import (critical_path, exemplar_summary, to_trace_events,
                     trace_tree, write_trace_json)
from .timeline import Timeline, TimelineSample, TimelineSampler
from .health import (HealthEvent, HealthRule, HealthWatchdog,
                     WatchdogAbort, default_rules)
from .expose import (MetricsHttpServer, timeline_csv, to_prometheus,
                     write_timeline_csv)
from .sampler import StackSampler, sample_table

__all__ = [
    "NOOP_TRACER", "PHASES", "VERB_PHASES", "SpanRing", "TraceData",
    "Tracer", "critical_path", "exemplar_summary", "to_trace_events",
    "trace_tree", "write_trace_json",
    "Timeline", "TimelineSample", "TimelineSampler",
    "HealthEvent", "HealthRule", "HealthWatchdog", "WatchdogAbort",
    "default_rules",
    "MetricsHttpServer", "timeline_csv",
    "to_prometheus", "write_timeline_csv",
    "StackSampler", "sample_table",
]
