"""The global statistics service (paper Section 4.1).

Partition managers sample a small fraction of running transactions and
report their read- and write-sets; the service aggregates per-record
access frequencies over a time window and converts them into per-record
contention likelihoods via the Poisson model.  0.1% sampling is enough
in the paper; sampling here is driven by the workload trace the
experiments feed in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..analysis import ProcedureRegistry
from ..storage.record import RecordId
from ..txn.common import TxnRequest
from .contention import contention_likelihood


@dataclass(frozen=True)
class TxnSample:
    """One sampled transaction's record footprint."""

    proc: str
    reads: tuple[RecordId, ...]
    writes: tuple[RecordId, ...]

    def records(self) -> tuple[RecordId, ...]:
        seen: dict[RecordId, None] = {}
        for rid in self.reads + self.writes:
            seen.setdefault(rid)
        return tuple(seen)


def sample_from_request(registry: ProcedureRegistry,
                        request: TxnRequest) -> TxnSample:
    """Extract the statically-knowable record footprint of a request.

    Records whose keys derive from values read at run time (fresh order
    ids, etc.) are skipped: they are new or unpredictable records, which
    by construction cannot be *frequently* accessed, so the contention
    model never needs them.
    """
    proc = registry.get(request.proc)
    reads: list[RecordId] = []
    writes: list[RecordId] = []
    written_reads: set[str] = set()
    instances = proc.instantiate(request.params)
    for inst in instances:
        target = inst.target_instance()
        if target is not None:
            written_reads.add(target)
    for inst in instances:
        placement = inst.placement(request.params)
        if placement is None or not placement.exact:
            continue
        rid = (placement.table, placement.key)
        kind = inst.spec.kind.value
        if kind == "read":
            if inst.name in written_reads:
                writes.append(rid)
            else:
                reads.append(rid)
        elif kind in ("update", "delete"):
            continue  # counted through their target read
        elif kind == "insert":
            writes.append(rid)
    return TxnSample(request.proc, tuple(reads), tuple(writes))


@dataclass
class StatsService:
    """Aggregates sampled footprints into contention likelihoods.

    ``lock_window_us`` is the average lock-hold duration; together with
    the observed transaction rate it converts access counts into the
    per-window Poisson arrival rates the model needs.
    """

    sample_rate: float = 1.0
    lock_window_us: float = 10.0
    samples: list[TxnSample] = field(default_factory=list)
    _read_counts: Counter = field(default_factory=Counter)
    _write_counts: Counter = field(default_factory=Counter)

    def record(self, sample: TxnSample) -> None:
        self.samples.append(sample)
        self._read_counts.update(sample.reads)
        self._write_counts.update(sample.writes)

    def arrival_rates(self, observed_duration_us: float,
                      ) -> dict[RecordId, tuple[float, float]]:
        """Per-record (lambda_w, lambda_r) within one lock window."""
        if observed_duration_us <= 0:
            raise ValueError("observation window must be positive")
        scale = self.lock_window_us / (observed_duration_us
                                       * self.sample_rate)
        rids = set(self._read_counts) | set(self._write_counts)
        return {rid: (self._write_counts[rid] * scale,
                      self._read_counts[rid] * scale)
                for rid in rids}

    def likelihoods(self, observed_duration_us: float,
                    ) -> dict[RecordId, float]:
        """Contention likelihood of every observed record."""
        return {rid: contention_likelihood(lw, lr)
                for rid, (lw, lr)
                in self.arrival_rates(observed_duration_us).items()}

    def likelihoods_from_txn_rate(self, txns_per_second: float,
                                  ) -> dict[RecordId, float]:
        """Offline variant: derive the window from an assumed load."""
        if txns_per_second <= 0:
            raise ValueError("transaction rate must be positive")
        implied_duration_us = (len(self.samples) / self.sample_rate
                               / txns_per_second * 1e6)
        return self.likelihoods(implied_duration_us)
