"""Live metrics timeline: periodic delta snapshots of the run's stats.

The aggregate metrics answer *what* a run did; the tracer answers
*where one transaction* spent its time.  This module answers *when the
system degraded*: every ``metrics_interval`` (simulated µs on the sim
backend, wall clock on aio/mp) a :class:`TimelineSampler` snapshots
**deltas** of the existing mergeable stats — committed/aborted txns and
abort reasons, scheduler queue depth and sheds, per-tenant SLO
attainment, WAL fsync/group-commit counters, placement moves/flips,
recovery restarts, wire bytes — into one :class:`TimelineSample` row
per server, collected in a bounded per-server ring
(:class:`Timeline`).

Overhead discipline mirrors the tracer's:

* Off is the default and costs one attribute load + None check per
  simulator event (``Simulator.probe``) and nothing at all on aio/mp.
* Sampling is pure Python bookkeeping — it reads counters that already
  exist, schedules no events, draws no randomness — so the sim
  backend's event stream (and therefore every figure) stays
  bit-identical with the timeline on.
* mp workers ship their rows home over the parent control pipe as the
  run progresses (a ``metrics_sample`` message per interval), so the
  parent holds one merged, monotonic timeline that survives worker
  deaths: a SIGKILLed worker's already-shipped intervals are kept even
  though its end-of-run metrics payload is lost forever.

Monotonicity by construction: every counter in a sample is a
nonnegative delta of a cumulative source counter, and a restarted
worker generation starts its sources from zero, so cumulative sums
over the merged timeline never decrease and a dead generation's unsent
partial interval is simply absent — never double-counted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .._stats import counters

DEFAULT_RING = 4096
"""Samples retained per server; at the default intervals this is hours
of run time, and overflow drops the *oldest* rows (counted, like the
tracer's span rings)."""


@dataclass
class TimelineSample:
    """One server's activity during one sample interval.

    ``counters`` are deltas over the interval (nonnegative by
    construction); ``gauges`` are point-in-time readings at the sample
    instant; ``tenants`` are per-tenant open-loop counter deltas
    (``scheduled`` / ``shed`` / ``committed`` / ``failed`` /
    ``in_slo``), present only on the row of the process's primary
    server.  Process-scoped counters (commits, WAL, wire bytes, ...)
    likewise appear only on the primary row so merging rows from many
    servers never double-counts them.
    """

    t_us: float
    server: int
    gen: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    tenants: dict[str, dict[str, float]] = field(default_factory=dict)
    final: bool = False
    """True on the end-of-run flush row: this server finished cleanly
    (the watchdog stops treating its subsequent silence as a stall)."""


class Timeline:
    """Bounded per-server rings of :class:`TimelineSample` rows.

    One per run, owned by the process that called ``Run.run``: its
    own sampler's rows, or the rows every mp worker ships live, arrive
    through :meth:`add_rows` — a timeline never rides a worker's
    payload.  ``health`` carries the watchdog's typed events so one
    object rides ``metrics.timeline`` into ``perf_summary()``.
    """

    def __init__(self, interval_us: float, ring: int = DEFAULT_RING):
        if interval_us <= 0:
            raise ValueError(f"metrics interval must be positive, "
                             f"got {interval_us}")
        self.interval_us = float(interval_us)
        self.ring = max(1, int(ring))
        self._rings: dict[int, deque] = {}
        self.dropped = 0
        self.health: list = []

    def add(self, sample: TimelineSample) -> None:
        ring = self._rings.get(sample.server)
        if ring is None:
            ring = self._rings[sample.server] = deque(maxlen=self.ring)
        if len(ring) == self.ring:
            self.dropped += 1
        ring.append(sample)

    def add_rows(self, rows: Iterable[TimelineSample]) -> None:
        for row in rows:
            self.add(row)

    def servers(self) -> list[int]:
        return sorted(self._rings)

    def rows(self, server: int | None = None) -> list[TimelineSample]:
        """Retained samples, time-ordered (all servers interleaved
        unless one is selected)."""
        if server is not None:
            return list(self._rings.get(server, ()))
        rows = [row for ring in self._rings.values() for row in ring]
        rows.sort(key=lambda r: (r.t_us, r.server, r.gen))
        return rows

    def cumulative(self, name: str,
                   server: int | None = None) -> list[tuple[float, float]]:
        """Running totals of a delta counter — monotonic by
        construction (every delta is nonnegative)."""
        total = 0.0
        out = []
        for row in self.rows(server):
            total += row.counters.get(name, 0.0)
            out.append((row.t_us, total))
        return out

    def totals(self) -> dict[str, float]:
        """Every counter summed over all retained rows."""
        totals: dict[str, float] = {}
        for ring in self._rings.values():
            for row in ring:
                for name, value in row.counters.items():
                    totals[name] = totals.get(name, 0.0) + value
        return totals

    def tenant_totals(self) -> dict[str, dict[str, float]]:
        totals: dict[str, dict[str, float]] = {}
        for ring in self._rings.values():
            for row in ring:
                for tenant, counters in row.tenants.items():
                    book = totals.setdefault(tenant, {})
                    for name, value in counters.items():
                        book[name] = book.get(name, 0.0) + value
        return totals

    def gauge_max(self, name: str, server: int | None = None) -> float:
        values = [row.gauges[name] for row in self.rows(server)
                  if name in row.gauges]
        return max(values) if values else 0.0

    def gauge_last(self, name: str, server: int) -> float:
        ring = self._rings.get(server)
        if ring:
            for row in reversed(ring):
                if name in row.gauges:
                    return row.gauges[name]
        return 0.0

    def summary(self) -> dict:
        """Report fields for ``RunResult.perf_summary()['timeline']``."""
        totals = self.totals()
        n = sum(len(ring) for ring in self._rings.values())
        return {
            "interval_us": self.interval_us,
            "samples": n,
            "dropped": self.dropped,
            "servers": len(self._rings),
            "commits": int(totals.get("commits", 0)),
            "aborts": int(totals.get("aborts", 0)),
            "sheds": int(totals.get("sheds", 0)),
            "max_queue_depth": int(self.gauge_max("max_queue_depth")),
        }


class TimelineSampler:
    """Snapshots one process's live stats into delta rows.

    One instance per process (the whole run on sim/aio, one per worker
    on mp), reading whatever its stats objects declare for the
    timeline (:func:`repro._stats.counters`): ``engines`` maps each
    home to its engine-scoped stats, one row per home; ``process``
    names the process-scoped stats, which — with the transaction
    ``outcomes``, the event count and the per-tenant ``tenants`` books
    — land on the *primary* row (the smallest owned home) so merging
    rows across processes never double-counts them.  ``tick`` emits
    one row per home every time the clock crosses an interval
    boundary; ``flush`` stamps the final partial interval.
    """

    def __init__(self, interval_us: float, outcomes: list,
                 engines: Mapping[int, object],
                 process: Mapping[str, object] | None = None,
                 tenants: Mapping[str, object] | None = None, *,
                 events_fired: Callable[[], int] | None = None,
                 gen: int = 0):
        if interval_us <= 0:
            raise ValueError(f"metrics interval must be positive, "
                             f"got {interval_us}")
        self.interval_us = float(interval_us)
        self.outcomes = outcomes
        self.engines = engines
        self.process = process or {}
        self.tenants = tenants or {}
        self.events_fired = events_fired
        self.gen = gen
        self.primary = min(engines) if engines else 0
        self._due = self.interval_us
        self._outcome_idx = 0
        self._events_prev = 0
        self._prev: dict[object, dict[str, float]] = {}

    def tick(self, now_us: float) -> list[TimelineSample]:
        """Emit rows iff ``now_us`` crossed the next interval boundary.

        Cheap when not due (one float compare), so the sim backend can
        call it after every event.
        """
        if now_us < self._due:
            return []
        self._due = (math.floor(now_us / self.interval_us) + 1) \
            * self.interval_us
        return self.sample(now_us)

    def flush(self, now_us: float) -> list[TimelineSample]:
        """Stamp the final (possibly partial) interval at run end."""
        return self.sample(now_us, final=True)

    def sample(self, now_us: float,
               final: bool = False) -> list[TimelineSample]:
        rows = []
        for home in sorted(self.engines):
            stats = self.engines[home]
            row = TimelineSample(
                t_us=now_us, server=home, gen=self.gen,
                counters=self._delta(home, stats),
                gauges={name: float(value) for name, value
                        in counters(stats, gauges=True).items()},
                final=final)
            if home == self.primary:
                self._process_counters(row)
            rows.append(row)
        if not rows:
            # a process with no load homes still reports its
            # process-scoped activity (and proves liveness)
            row = TimelineSample(t_us=now_us, server=self.primary,
                                 gen=self.gen, final=final)
            self._process_counters(row)
            rows.append(row)
        return rows

    # -- delta bookkeeping -------------------------------------------------

    def _delta(self, scope, stats) -> dict[str, float]:
        current = counters(stats)
        prev = self._prev.get(scope, {})
        self._prev[scope] = current
        return {k: v - prev.get(k, 0) for k, v in current.items()
                if v != prev.get(k, 0)}

    def _process_counters(self, row: TimelineSample) -> None:
        tally = row.counters
        commits = aborts = 0
        for outcome in self.outcomes[self._outcome_idx:]:
            if outcome.committed:
                commits += 1
            else:
                aborts += 1
                reason = getattr(outcome.reason, "value", outcome.reason)
                key = f"aborts.{reason}"
                tally[key] = tally.get(key, 0) + 1
        self._outcome_idx = len(self.outcomes)
        if commits:
            tally["commits"] = commits
        if aborts:
            tally["aborts"] = aborts
        for name, stats in self.process.items():
            tally.update(self._delta(name, stats))
        if self.events_fired is not None:
            events = self.events_fired()
            if events != self._events_prev:
                tally["events"] = events - self._events_prev
                self._events_prev = events
        for tenant, stats in self.tenants.items():
            delta = self._delta(("tenant", tenant), stats)
            if delta:
                row.tenants[tenant] = delta
