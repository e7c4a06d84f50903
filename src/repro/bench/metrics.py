"""Run metrics: throughput, abort rates, fairness, latency.

One :class:`Metrics` instance collects every transaction attempt's
:class:`~repro.txn.common.Outcome`.  Abort *rate* is aborts over all
attempts (retries count as fresh attempts, matching how the paper's
NO_WAIT systems report it); throughput counts commits per simulated
second inside the measurement window.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .._stats import folded, report, stat
from ..placement import PlacementStats
from ..sched import SchedulerStats
from ..storage import RecoveryStats
from ..txn.common import AbortReason, Outcome

APP_ABORTS = frozenset({AbortReason.LOGICAL, AbortReason.READ_MISS})
"""Abort reasons decided by the application, not by contention."""


@dataclass
class LatencyHistogram:
    """Log2-bucketed latency histogram with linear sub-buckets.

    Values (microseconds) below ``2**SUBBUCKET_BITS`` land in exact
    unit-wide buckets; above that, every power-of-two octave splits
    into ``2**SUBBUCKET_BITS`` equal sub-buckets (the HdrHistogram
    layout), bounding the relative quantile error at ``1 /
    2**(SUBBUCKET_BITS+1)`` (~1.6%) at any magnitude.  Bucket counts
    simply add, so folding is associative and commutative — mp workers
    pickle theirs to the parent, which folds them in any order.
    """

    SUBBUCKET_BITS = 5

    counts: dict[int, int] = stat(dict)
    n: int = 0
    total_us: float = 0.0
    max_us: float = stat(0.0, fold="max")

    @classmethod
    def _index(cls, value: int) -> int:
        sub = 1 << cls.SUBBUCKET_BITS
        if value < sub:
            return value
        shift = value.bit_length() - (cls.SUBBUCKET_BITS + 1)
        return (shift << cls.SUBBUCKET_BITS) + (value >> shift)

    @classmethod
    def _bucket_mid(cls, index: int) -> float:
        """Midpoint of the half-open value range bucket ``index`` covers."""
        sub = 1 << cls.SUBBUCKET_BITS
        shift = max(0, index // sub - 1)
        low = (index - shift * sub) << shift
        return low + ((1 << shift) - 1) / 2.0

    def record(self, latency_us: float) -> None:
        value = max(0, int(latency_us))
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.n += 1
        self.total_us += latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us

    def mean_us(self) -> float:
        return self.total_us / self.n if self.n else 0.0

    def percentile(self, q: float) -> float:
        """The latency at quantile ``q`` (0 < q <= 1), bucket-midpoint
        interpolated (exact for sub-``2**SUBBUCKET_BITS``-µs values)."""
        if self.n == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.n))
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= rank:
                return self._bucket_mid(index)
        return self.max_us

    def summary(self) -> dict:
        """p50/p99/p999 report fields (µs on the backend's own clock)."""
        return {
            "count": self.n,
            "mean_us": round(self.mean_us(), 1),
            "p50_us": round(self.percentile(0.50), 1),
            "p99_us": round(self.percentile(0.99), 1),
            "p999_us": round(self.percentile(0.999), 1),
            "max_us": round(self.max_us, 1),
        }


@dataclass
class TenantTraffic:
    """One tenant's open-loop accounting: arrivals in, SLO out.

    Latency is recorded **from the scheduled arrival** to final
    completion — queueing, dispatch lag, scheduler deferrals, and every
    retry included — which is what makes the percentiles coordinated-
    omission-safe: a stalled server inflates the recorded latency of
    every request scheduled during the stall, exactly as real clients
    would experience it.
    """

    scheduled: int = stat(timeline="scheduled")
    """Arrivals the generator produced for this tenant (the SLO
    denominator — shed and failed requests count against attainment)."""

    shed: int = stat(timeline="shed")
    """Arrivals dropped before execution (admission or scheduler)."""

    committed: int = stat(timeline="committed")
    failed: int = stat(timeline="failed")
    """Admitted requests that never committed (retries exhausted or the
    run drained first)."""

    deadline_us: float = stat(0.0, fold="max")
    in_slo: int = stat(timeline="in_slo", report="slo_attainment")
    """Committed within ``deadline_us`` of the scheduled arrival
    (:meth:`OpenLoopStats.summary` reports it as :meth:`attainment`)."""

    histogram: LatencyHistogram = stat(LatencyHistogram, report=None)

    def attainment(self) -> float:
        """Fraction of *scheduled* arrivals that met their SLO."""
        return self.in_slo / self.scheduled if self.scheduled else 0.0


@dataclass
class OpenLoopStats:
    """Per-tenant open-loop traffic counters, surfaced via ``Metrics``.

    Picklable: each mp worker accumulates its homes' traffic and the
    parent folds the parts (histogram buckets add, counters sum)."""

    tenants: dict[str, TenantTraffic] = stat(dict)

    def tenant(self, name: str, deadline_us: float = 0.0) -> TenantTraffic:
        traffic = self.tenants.get(name)
        if traffic is None:
            traffic = self.tenants[name] = TenantTraffic(
                deadline_us=deadline_us)
        return traffic

    def overall(self) -> LatencyHistogram:
        return folded(LatencyHistogram,
                      [t.histogram for t in self.tenants.values()])

    @property
    def scheduled(self) -> int:
        return sum(t.scheduled for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    def summary(self) -> dict:
        """Report fields for ``RunResult.perf_summary()['open_loop']``."""
        tenants = {}
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            row = tenants[name] = report(tenant)
            row["slo_attainment"] = round(tenant.attainment(), 4)
            row.update((k, v) for k, v in tenant.histogram.summary().items()
                       if k != "count")
        return {"scheduled": self.scheduled, "shed": self.shed,
                "latency": self.overall().summary(), "tenants": tenants}


@dataclass
class Metrics:
    """Aggregated outcomes of one benchmark run."""

    outcomes: list[Outcome] = stat(list)

    wall_seconds: float = stat(0.0, fold="max")
    """Real (not simulated) time the run took; filled by the harness so
    Python hot-path regressions show up in persisted benchmark results.
    Folds as a max: mp workers ran concurrently."""

    events_processed: int = 0
    """Simulator events fired during the run; filled by the harness."""

    scheduler_stats: dict[int, SchedulerStats] = stat(dict)
    """Per-engine scheduling counters (queue depth, queueing delay,
    deferrals/sheds by typed reason); filled by the harness.  Shed
    requests never produced an Outcome — this is where they show up.
    A book by engine: each engine's scheduler lived in one worker."""

    placement_stats: PlacementStats | None = None
    """Adaptive-placement counters (epochs, planned/applied moves,
    routing flips); filled by the harness when ``RunConfig.placement``
    is adaptive, None on static runs."""

    recovery_stats: RecoveryStats | None = None
    """Durability/recovery counters (WAL appends/fsyncs/bytes, replays,
    in-doubt resolutions, controller failovers); filled by the harness
    from the database's shared ``RecoveryStats``."""

    open_loop: OpenLoopStats | None = None
    """Open-loop traffic counters (per-tenant CO-safe latency
    histograms + SLO attainment); filled by the harness when
    ``RunConfig.arrivals`` selects an arrival process, None on
    closed-loop runs."""

    trace: "TraceData | None" = None
    """Harvested phase spans + tail exemplars
    (:class:`repro.obs.TraceData`); filled by the harness when
    ``RunConfig.trace`` is on, None otherwise.  mp workers each ship
    theirs and the parent folds them, like every other stat."""

    samples: dict[str, dict[str, int]] = stat(dict)
    """Stack samples by process, then by ``repro`` module (or ``wait``)
    (:class:`repro.obs.sampler.StackSampler`); filled when
    ``RunConfig.trace`` is on — one book per mp worker, plus the process
    that called ``Run.run()``."""

    timeline: "object | None" = None
    """Merged live metrics timeline (:class:`repro.obs.Timeline`, with
    the watchdog's events on ``timeline.health``); filled by the
    harness when ``RunConfig.metrics_interval`` is set.  On mp runs
    workers ship sample rows live over the control pipe and the
    *parent* owns the one merged timeline, so it survives worker
    deaths — it does not ride the worker payloads."""

    def add(self, outcome: Outcome) -> None:
        self.outcomes.append(outcome)

    @classmethod
    def merged(cls, parts: list["Metrics"]) -> "Metrics":
        """Combine per-worker metrics from a parallel (mp) run, each
        field by its declared rule.  No timeline rides a part (see
        :attr:`timeline`)."""
        return folded(cls, parts)

    def scheduler_summary(self) -> SchedulerStats | None:
        """All engines' scheduling counters folded into one view."""
        if not self.scheduler_stats:
            return None
        return folded(SchedulerStats, self.scheduler_stats.values())

    def wasted_attempts(self) -> int:
        """Attempts that aborted on contention — work the system paid
        CPU and network for with nothing to show (application aborts
        are workload semantics, not waste)."""
        return sum(1 for o in self.outcomes
                   if not o.committed and o.reason not in APP_ABORTS)

    def events_per_wall_second(self) -> float:
        """Simulator event rate — the hot-path speed figure."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    # -- counts ----------------------------------------------------------

    @property
    def attempts(self) -> int:
        return len(self.outcomes)

    @property
    def commits(self) -> int:
        return sum(1 for o in self.outcomes if o.committed)

    @property
    def aborts(self) -> int:
        return self.attempts - self.commits

    def commits_by_proc(self) -> Counter:
        return Counter(o.proc for o in self.outcomes if o.committed)

    # -- rates ------------------------------------------------------------

    def abort_rate(self, proc: str | None = None,
                   include_app_aborts: bool = False) -> float:
        """Aborts / attempts.  Application aborts (failed CHECKs and the
        TPC-C 1% rollback read-misses) are excluded by default: they are
        workload semantics, not contention."""
        outcomes = [o for o in self.outcomes
                    if proc is None or o.proc == proc]
        if not include_app_aborts:
            outcomes = [o for o in outcomes
                        if o.committed or o.reason not in APP_ABORTS]
        if not outcomes:
            return 0.0
        aborted = sum(1 for o in outcomes if not o.committed)
        return aborted / len(outcomes)

    def throughput(self, window_start: float, window_end: float) -> float:
        """Committed transactions per simulated *second* in the window."""
        if window_end <= window_start:
            raise ValueError("empty measurement window")
        commits = sum(1 for o in self.outcomes
                      if o.committed and window_start <= o.end < window_end)
        return commits / ((window_end - window_start) / 1e6)

    def distributed_ratio(self) -> float:
        """Fraction of committed transactions spanning >1 partition."""
        committed = [o for o in self.outcomes if o.committed]
        if not committed:
            return 0.0
        return sum(1 for o in committed if o.distributed) / len(committed)

    def two_region_ratio(self) -> float:
        """Fraction of committed transactions run as two-region."""
        committed = [o for o in self.outcomes if o.committed]
        if not committed:
            return 0.0
        return (sum(1 for o in committed if o.used_two_region)
                / len(committed))

    # -- latency ------------------------------------------------------------

    def latencies(self, proc: str | None = None,
                  committed_only: bool = True) -> list[float]:
        return [o.latency for o in self.outcomes
                if (proc is None or o.proc == proc)
                and (o.committed or not committed_only)]

    def percentile_latency(self, q: float, proc: str | None = None) -> float:
        values = sorted(self.latencies(proc))
        if not values:
            return 0.0
        index = min(len(values) - 1, int(q * len(values)))
        return values[index]

    # -- fairness (Fig. 9c) ----------------------------------------------------

    def commit_share(self) -> dict[str, float]:
        """Per-procedure share of all commits (starvation shows up as a
        class's share collapsing)."""
        commits = self.commits_by_proc()
        total = sum(commits.values())
        if total == 0:
            return {}
        return {proc: count / total for proc, count in commits.items()}
