"""Near-zero-overhead phase tracing for the transaction runtimes.

The tracer answers the question the aggregate metrics cannot: *where
did a slow transaction spend its time, on which server?*  Executors,
the commit FSM, schedulers, admission, and the migration executor emit
**phase spans** — flat tuples ``(trace, txn_id, attempt, server,
phase, t_start_us, t_end_us, outcome)`` — into per-server ring
buffers.  A trace id allocated at dispatch rides the effect runtimes'
task context (and, on the mp backend, the wire frames), so a
cross-partition transaction's spans stitch into one tree however many
processes touched it.

Overhead discipline:

* Disabled is the default and costs one attribute load + branch per
  would-be span: every emission site guards on ``tracer.enabled``
  (a class attribute — ``False`` on :data:`NOOP_TRACER`) and the
  module-level :data:`NOOP_TRACER` singleton means no per-run
  allocation happens until a run opts in with ``trace=True``.
* Enabled stays cheap: rings are preallocated power-of-two lists
  written with a mask-and-bump (no append, no branch on full — old
  spans are overwritten and counted as ``dropped``), spans are plain
  tuples of ints and interned phase strings, and sampling is a
  deterministic every-Nth counter so two runs with the same seed
  sample the same transactions.
* Span emission is pure Python bookkeeping — no effects, no RNG
  draws — so even with tracing *on* the sim backend's event stream
  (and therefore every figure) is bit-identical to tracing off.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._stats import stat

PHASES = ("lock", "read", "validate", "replicate", "prepare", "commit",
          "release", "queue_wait", "shed", "migrate")

TRACE_HOME_SHIFT = 40
"""Trace ids are ``(home + 1) << 40 | seq``: per-home counters can
never collide, the id fits the wire codec's signed int64 slot, and 0
is reserved for "untraced" so it packs as a plain falsy sentinel."""

# Server-side phase attribution for mp remote verb execution, where
# the participant sees a verb name rather than a coordinator phase.
VERB_PHASES = {
    "lock_read": "lock",
    "lock_insert": "lock",
    "plain_read": "read",
    "validate_write": "validate",
    "validate_read": "validate",
    "replica_apply": "replicate",
    "prepare": "prepare",
    "decision": "commit",
    "commit": "commit",
    "recover_query": "commit",
    "release": "release",
}

RING_CAPACITY = 65536
"""Spans each server's ring holds; past it the oldest are overwritten
and counted as dropped (sample with ``RunConfig.trace_sample``)."""

EXEMPLAR_K = 5
"""Slowest traced requests kept per tenant as tail exemplars."""


class SpanRing:
    """Fixed-capacity overwrite-oldest span log for one server."""

    __slots__ = ("buf", "mask", "n")

    def __init__(self, capacity: int):
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.buf = [None] * cap
        self.mask = cap - 1
        self.n = 0

    def push(self, span) -> None:
        self.buf[self.n & self.mask] = span
        self.n += 1

    @property
    def dropped(self) -> int:
        return max(0, self.n - len(self.buf))

    def spans(self) -> list:
        """Retained spans, oldest first."""
        if self.n <= len(self.buf):
            return self.buf[:self.n]
        head = self.n & self.mask
        return self.buf[head:] + self.buf[:head]


@dataclass
class TraceData:
    """Harvested spans + tail exemplars; the metrics payload.

    mp workers harvest their rings at quiescence and ship a
    ``TraceData`` home inside :class:`~repro.bench.metrics.Metrics`;
    the parent folds them like the other per-worker stats: spans and
    each tenant's exemplar candidates concatenate, and
    :func:`~repro.obs.export.exemplar_summary` keeps the slowest
    ``exemplar_k`` of them.
    """

    spans: list = stat(list)
    exemplars: dict = stat(dict)
    dropped: int = 0
    exemplar_k: int = stat(5, fold="max")

    def summary(self) -> dict:
        # "dropped_spans" duplicates "dropped" under the name the
        # Perfetto export and report tooling key on, so a truncated
        # trace is loud everywhere the summary travels
        return {"spans": len(self.spans), "dropped": self.dropped,
                "dropped_spans": self.dropped,
                "traces": len({s[0] for s in self.spans})}


class Tracer:
    """The live tracer installed on a run's :class:`Database`.

    One instance serves every server engine in a process; rings are
    per-server so the hot path never contends and harvest preserves
    per-server attribution.
    """

    enabled = True

    __slots__ = ("sample_every", "rings", "exemplars", "_next_seq")

    def __init__(self, sample_every: int = 1):
        self.sample_every = max(1, int(sample_every))
        self.rings: dict[int, SpanRing] = {}
        self.exemplars: dict[str, list] = {}
        self._next_seq: dict[int, int] = {}

    def new_trace(self, home: int) -> int:
        """Allocate a trace id for a request dispatched at ``home``.

        Returns 0 (= untraced) for unsampled requests; the counter
        advances either way so sampling is deterministic.
        """
        seq = self._next_seq.get(home, 0)
        self._next_seq[home] = seq + 1
        if seq % self.sample_every:
            return 0
        return ((home + 1) << TRACE_HOME_SHIFT) | seq

    def span(self, trace: int, txn_id: int, attempt: int, server: int,
             phase: str, t_start_us: float, t_end_us: float,
             outcome: str = "ok") -> None:
        if not trace:
            return
        ring = self.rings.get(server)
        if ring is None:
            ring = self.rings[server] = SpanRing(RING_CAPACITY)
        ring.push((trace, txn_id, attempt, server, phase,
                   t_start_us, t_end_us, outcome))

    def exemplar(self, tenant: str, trace: int,
                 latency_us: float) -> None:
        """Tag ``trace`` as a tail candidate for ``tenant``.

        Keeps the slowest-K per tenant; ties broken by insertion.
        """
        if not trace:
            return
        entries = self.exemplars.setdefault(tenant, [])
        entries.append((latency_us, trace))
        entries.sort(key=lambda e: -e[0])
        del entries[EXEMPLAR_K:]

    def harvest(self) -> TraceData:
        """Drain every ring into a mergeable :class:`TraceData`.

        Draining (not copying) keeps a restarted mp worker's tracer
        from re-shipping its predecessor generation's spans.
        """
        spans = []
        dropped = 0
        for server in sorted(self.rings):
            ring = self.rings[server]
            spans.extend(ring.spans())
            dropped += ring.dropped
        data = TraceData(spans=spans, exemplars=self.exemplars,
                         dropped=dropped, exemplar_k=EXEMPLAR_K)
        self.rings = {}
        self.exemplars = {}
        return data


class _NoopTracer:
    """Module-level disabled fast path: one shared instance, every
    method a no-op, ``enabled`` False so guarded emission sites skip
    even the call."""

    enabled = False

    __slots__ = ()

    def new_trace(self, home: int) -> int:
        return 0

    def span(self, *args, **kwargs) -> None:
        return None

    def exemplar(self, *args, **kwargs) -> None:
        return None

    def harvest(self) -> TraceData:
        return TraceData()


NOOP_TRACER = _NoopTracer()
