"""Runtime access telemetry: observed footprints per execution engine.

Where the offline :class:`~repro.core.stats.StatsService` consumes a
*training trace*, this collector samples what committed transactions
**actually touched** at run time (``Outcome.read_set`` /
``Outcome.write_set``, populated by the executor when its
``record_footprints`` flag is on).  Each engine owns one collector —
the same engine-local stance as the scheduling layer, which is what
lets the identical code run on the simulator, the asyncio loop, and
inside every multiprocess worker.  A collector never leaves its
process: the controller drains the collectors of its own engines.

The controller drains a collector per epoch into a
:class:`TelemetryWindow` — a frozen snapshot of the window's co-access
samples and per-record access counts — and feeds the window to the
same star-graph pipeline the offline partitioner uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.contention import contention_likelihood
from ..core.stats import TxnSample
from ..storage import RecordId

MAX_SAMPLES = 512
"""Co-access samples one engine keeps per window (the most recent)."""


@dataclass(frozen=True)
class TelemetryWindow:
    """One epoch's frozen observation: samples + access counts."""

    start_us: float
    end_us: float
    samples: tuple[TxnSample, ...]
    read_counts: dict[RecordId, int]
    write_counts: dict[RecordId, int]
    commits_observed: int

    @property
    def duration_us(self) -> float:
        return max(self.end_us - self.start_us, 1e-9)

    def accesses(self, rid: RecordId) -> int:
        return self.read_counts.get(rid, 0) + self.write_counts.get(rid, 0)

    def records(self) -> set[RecordId]:
        return set(self.read_counts) | set(self.write_counts)

    def likelihoods(self, lock_window_us: float) -> dict[RecordId, float]:
        """Per-record contention likelihoods from the observed window.

        Same Poisson model as the offline pipeline (Section 4.1):
        per-record access counts over the window duration give arrival
        rates per lock window, which the closed form converts to a
        conflict probability.  Counts here cover *every* committed
        transaction in the window (only the co-access samples are
        capped), so no sample-rate correction is needed.
        """
        scale = lock_window_us / self.duration_us
        return {rid: contention_likelihood(
                    self.write_counts.get(rid, 0) * scale,
                    self.read_counts.get(rid, 0) * scale)
                for rid in self.records()}

    @classmethod
    def merged(cls, parts: list["TelemetryWindow"]) -> "TelemetryWindow":
        """Fold the per-engine windows of one epoch into a global view."""
        if not parts:
            return cls(0.0, 0.0, (), {}, {}, 0)
        reads: dict[RecordId, int] = {}
        writes: dict[RecordId, int] = {}
        samples: list[TxnSample] = []
        commits = 0
        for part in parts:
            samples.extend(part.samples)
            commits += part.commits_observed
            for rid, count in part.read_counts.items():
                reads[rid] = reads.get(rid, 0) + count
            for rid, count in part.write_counts.items():
                writes[rid] = writes.get(rid, 0) + count
        return cls(min(p.start_us for p in parts),
                   max(p.end_us for p in parts),
                   tuple(samples), reads, writes, commits)


@dataclass
class AccessTelemetry:
    """One engine's rolling observation of committed footprints.

    Access *counts* cover every commit; :data:`MAX_SAMPLES` bounds the
    co-access samples a window keeps, the most recent footprints —
    recency is the point of online re-partitioning.
    """

    samples: list = field(default_factory=list)
    read_counts: dict = field(default_factory=dict)
    write_counts: dict = field(default_factory=dict)
    commits_observed: int = 0
    commits_total: int = 0
    """Commits observed since construction (never reset by drains)."""

    window_start_us: float = 0.0

    def observe(self, outcome, now: float) -> None:
        """Record one committed transaction's actual footprint."""
        if not outcome.read_set and not outcome.write_set:
            return  # nothing statically attributable (or footprints off)
        self.commits_observed += 1
        self.commits_total += 1
        for rid in outcome.read_set:
            self.read_counts[rid] = self.read_counts.get(rid, 0) + 1
        for rid in outcome.write_set:
            self.write_counts[rid] = self.write_counts.get(rid, 0) + 1
        if len(self.samples) >= MAX_SAMPLES:
            del self.samples[0]
        self.samples.append(TxnSample(outcome.proc,
                                      tuple(outcome.read_set),
                                      tuple(outcome.write_set)))

    def drain(self, now: float) -> TelemetryWindow:
        """Snapshot and reset the current window (one per epoch)."""
        window = TelemetryWindow(
            start_us=self.window_start_us, end_us=now,
            samples=tuple(self.samples),
            read_counts=dict(self.read_counts),
            write_counts=dict(self.write_counts),
            commits_observed=self.commits_observed)
        self.samples.clear()
        self.read_counts.clear()
        self.write_counts.clear()
        self.commits_observed = 0
        self.window_start_us = now
        return window
