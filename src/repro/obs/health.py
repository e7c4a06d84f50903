"""Health watchdog: declarative rules over the live metrics timeline.

A :class:`HealthWatchdog` watches the stream of
:class:`~repro.obs.timeline.TimelineSample` rows and turns sustained
bad intervals into typed :class:`HealthEvent` records — the difference
between "the run finished with 12% fewer commits" and "server 1
stopped committing at t=2.3s while its queue sat at 64".  Rules are
declarative (:class:`HealthRule`: a kind, a threshold, a window of
consecutive intervals) and evaluated once per interval, so detection
latency is bounded by ``window * metrics_interval`` — the acceptance
bar for the chaos tests.

Built-in rule kinds:

``stall``
    A server admitted work (or holds a queue) but completed nothing
    for ``window`` consecutive intervals — or went *silent*: no sample
    for ``window`` intervals of timeline time, or rows that move on to a
    new worker generation.  The latter is how a SIGKILLed mp worker
    shows when its replacement resumes shipping within the window (a
    forked respawn takes milliseconds): the dead generation's partial
    interval never ships, so the death is a gap, however short.
``queue_saturation``
    A server's admission queue depth sat at/above ``threshold`` for
    ``window`` consecutive samples: the open-loop saturation signature.
``slo_burn``
    A tenant's windowed SLO attainment (in_slo / scheduled) fell below
    ``threshold``; ``tenant`` scopes the rule (substring match, e.g.
    ``"gold"``).
``leader_flap``
    ``controller_failovers`` advanced by at least ``threshold`` within
    the window: the placement lease changed hands.
``restart_storm``
    ``recoveries`` advanced by at least ``threshold`` within the
    window: workers are dying faster than steady state allows.

Events latch on the rising edge (one event per incident, not one per
interval) and re-arm when the condition clears.  A rule marked
``fatal`` plus ``abort=True`` raises :class:`WatchdogAbort` out of the
run loop so a wedged bench run dies in seconds instead of hanging
until its timeout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence


class WatchdogAbort(RuntimeError):
    """Raised out of the run loop when a fatal health rule fires."""

    def __init__(self, event: "HealthEvent"):
        super().__init__(f"watchdog abort: {event.message}")
        self.event = event


@dataclass(frozen=True)
class HealthEvent:
    """One detected incident; lands in ``perf_summary()['health']``."""

    kind: str
    t_us: float
    server: int          # -1 for cluster-scoped events
    value: float
    threshold: float
    message: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "t_us": self.t_us,
                "server": self.server, "value": self.value,
                "threshold": self.threshold, "message": self.message}


@dataclass(frozen=True)
class HealthRule:
    """One declarative condition evaluated every interval."""

    kind: str
    threshold: float
    window: int = 3
    fatal: bool = False
    tenant: str | None = None


def default_rules() -> tuple[HealthRule, ...]:
    """The stock rule set: catch wedges fatally, degradation loudly."""
    return (
        HealthRule("stall", threshold=0.0, window=3, fatal=True),
        HealthRule("queue_saturation", threshold=64.0, window=3),
        HealthRule("slo_burn", threshold=0.5, window=3, tenant=None),
        HealthRule("leader_flap", threshold=1.0, window=3),
        HealthRule("restart_storm", threshold=2.0, window=3),
    )


class HealthWatchdog:
    """Evaluates :class:`HealthRule` s against ingested timeline rows.

    ``ingest`` feeds it sample rows (from any server, any order);
    ``evaluate`` runs every rule against the per-server windows and
    appends new :class:`HealthEvent` s to ``events``.  Latching: a
    (kind, subject) pair fires once per incident and re-arms only
    after an interval in which the condition does not hold.
    """

    def __init__(self, rules: Sequence[HealthRule] | None = None,
                 interval_us: float = 1.0, abort: bool = False):
        self.rules = tuple(rules) if rules is not None else default_rules()
        self.interval_us = float(interval_us)
        self.abort = abort
        self.events: list[HealthEvent] = []
        self.last_seen_us: dict[int, float] = {}
        window = max([r.window for r in self.rules], default=3)
        self._window = max(1, window)
        self._rows: dict[int, deque] = {}
        self._active: set[tuple] = set()
        self._finished: set[int] = set()
        self._restarted: dict[int, tuple[int, int, float]] = {}
        """server -> (dead gen, new gen, silence) not yet evaluated."""

    # -- ingestion ---------------------------------------------------------

    def ingest(self, rows: Iterable, at_us: float | None = None) -> None:
        """Feed sample rows into the per-server windows.

        ``at_us`` is the *observer's* clock at ingestion time; the mp
        parent passes its own wall clock here because worker sample
        timestamps share neither origin nor skew with the clock that
        ``evaluate`` runs on (the workers' clocks start only after the
        build/population phase).  Single-clock backends (sim, aio)
        omit it and the rows' own timestamps are used.
        """
        for row in rows:
            seen_us = at_us if at_us is not None else row.t_us
            seen = self.last_seen_us.get(row.server)
            book = self._rows.get(row.server)
            if book is None:
                book = self._rows[row.server] = deque(maxlen=self._window)
            elif row.gen > book[-1].gen:
                self._restarted[row.server] = (book[-1].gen, row.gen,
                                               seen_us - seen)
            book.append(row)
            if getattr(row, "final", False):
                # clean end-of-run flush: this server is done, its
                # silence from here on is retirement, not a stall
                self._finished.add(row.server)
            if seen is None or seen_us > seen:
                self.last_seen_us[row.server] = seen_us

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now_us: float,
                 allow_abort: bool = True) -> list[HealthEvent]:
        """Run every rule; returns (and records) newly fired events."""
        fired: list[HealthEvent] = []
        for rule in self.rules:
            check = getattr(self, f"_check_{rule.kind}", None)
            if check is None:
                raise ValueError(f"unknown health rule kind "
                                 f"{rule.kind!r}")
            fired.extend(check(rule, now_us))
        self.events.extend(fired)
        if allow_abort and self.abort:
            for event in fired:
                for rule in self.rules:
                    if rule.fatal and rule.kind == event.kind:
                        raise WatchdogAbort(event)
        return fired

    def _latch(self, key: tuple, firing: bool,
               event: HealthEvent | None) -> list[HealthEvent]:
        if not firing:
            self._active.discard(key)
            return []
        if key in self._active:
            return []
        self._active.add(key)
        return [event]

    # -- rule kinds --------------------------------------------------------

    def _check_stall(self, rule: HealthRule,
                     now_us: float) -> list[HealthEvent]:
        fired = []
        horizon = rule.window * self.interval_us
        restarted, self._restarted = self._restarted, {}
        for server, (dead, new, silent_us) in restarted.items():
            # a new generation: the old one died without its final
            # interval, however soon the replacement shipped again
            # (latched: a silence already reported is the same incident)
            fired.extend(self._latch(
                ("stall", server), True,
                HealthEvent(
                    "stall", now_us, server, silent_us, 0.0,
                    f"server {server} silent for {silent_us:,.0f}us "
                    f"across a restart (generation {dead} died, "
                    f"{new} took over)")))
        for server, book in self._rows.items():
            if server in restarted:
                continue
            # silence: the server stopped shipping samples entirely
            # (on mp, the first visible symptom of a SIGKILLed worker)
            silent_us = now_us - self.last_seen_us[server]
            if silent_us >= horizon and server not in self._finished:
                fired.extend(self._latch(
                    ("stall", server), True,
                    HealthEvent(
                        "stall", now_us, server, silent_us, horizon,
                        f"server {server} silent for "
                        f"{silent_us:,.0f}us "
                        f"(>= {rule.window} intervals)")))
                continue
            if len(book) < rule.window:
                self._active.discard(("stall", server))
                continue
            recent = list(book)[-rule.window:]
            completed = sum(r.counters.get("completed", 0)
                            for r in recent)
            admitted = sum(r.counters.get("admitted", 0)
                           for r in recent)
            queued = recent[-1].gauges.get("queue_depth", 0.0)
            firing = (completed <= rule.threshold
                      and (admitted > 0 or queued > 0))
            fired.extend(self._latch(
                ("stall", server), firing,
                HealthEvent(
                    "stall", recent[-1].t_us, server, completed,
                    rule.threshold,
                    f"server {server} completed nothing for "
                    f"{rule.window} intervals "
                    f"(admitted={admitted:.0f}, "
                    f"queue_depth={queued:.0f})") if firing else None))
        return fired

    def _check_queue_saturation(self, rule: HealthRule,
                                now_us: float) -> list[HealthEvent]:
        fired = []
        for server, book in self._rows.items():
            recent = list(book)[-rule.window:]
            depths = [r.gauges.get("queue_depth", 0.0) for r in recent]
            firing = (len(recent) >= rule.window
                      and all(d >= rule.threshold for d in depths))
            fired.extend(self._latch(
                ("queue_saturation", server), firing,
                HealthEvent(
                    "queue_saturation", recent[-1].t_us, server,
                    max(depths), rule.threshold,
                    f"server {server} queue depth >= "
                    f"{rule.threshold:.0f} for {rule.window} "
                    f"intervals (peak {max(depths):.0f})")
                if firing else None))
        return fired

    def _check_slo_burn(self, rule: HealthRule,
                        now_us: float) -> list[HealthEvent]:
        # per-tenant counters ride the primary rows; pool the window
        # across servers so a multi-process run reads as one fleet
        scheduled: dict[str, float] = {}
        in_slo: dict[str, float] = {}
        latest = 0.0
        for book in self._rows.values():
            for row in book:
                latest = max(latest, row.t_us)
                for tenant, counters in row.tenants.items():
                    if rule.tenant and rule.tenant not in tenant:
                        continue
                    scheduled[tenant] = (scheduled.get(tenant, 0.0)
                                         + counters.get("scheduled", 0))
                    in_slo[tenant] = (in_slo.get(tenant, 0.0)
                                      + counters.get("in_slo", 0))
        fired = []
        for tenant, n in scheduled.items():
            if n <= 0:
                self._active.discard(("slo_burn", tenant))
                continue
            attainment = in_slo.get(tenant, 0.0) / n
            firing = attainment < rule.threshold
            fired.extend(self._latch(
                ("slo_burn", tenant), firing,
                HealthEvent(
                    "slo_burn", latest, -1, attainment, rule.threshold,
                    f"tenant {tenant} SLO attainment "
                    f"{attainment:.2f} < {rule.threshold:.2f} over "
                    f"the last {rule.window} intervals")
                if firing else None))
        return fired

    def _cluster_counter(self, rule: HealthRule, now_us: float,
                         counter: str, what: str) -> list[HealthEvent]:
        total = 0.0
        latest = 0.0
        for book in self._rows.values():
            for row in book:
                total += row.counters.get(counter, 0)
                latest = max(latest, row.t_us)
        firing = total >= rule.threshold
        return self._latch(
            (rule.kind, -1), firing,
            HealthEvent(
                rule.kind, latest or now_us, -1, total, rule.threshold,
                f"{total:.0f} {what} within {rule.window} intervals")
            if firing else None)

    def _check_leader_flap(self, rule: HealthRule,
                           now_us: float) -> list[HealthEvent]:
        return self._cluster_counter(rule, now_us,
                                     "controller_failovers",
                                     "placement lease failover(s)")

    def _check_restart_storm(self, rule: HealthRule,
                             now_us: float) -> list[HealthEvent]:
        return self._cluster_counter(rule, now_us, "recoveries",
                                     "worker recovery(ies)")

    def summary(self) -> list[dict]:
        return [event.as_dict() for event in self.events]
