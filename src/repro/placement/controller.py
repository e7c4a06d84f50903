"""The placement controller: observed window -> bounded migration plan.

Every epoch the controller re-runs the contention-aware partitioning
pipeline (:func:`~repro.core.partitioner.partition_workload`, the same
star-graph min-cut the offline trainer uses) over the telemetry
window, then turns the cut into *moves*:

1. **Label alignment.**  A graph cut's partition labels are arbitrary
   — label 2 of this epoch's cut has nothing to do with cluster
   partition 2.  The controller aligns labels to cluster partitions by
   greedy maximum-overlap matching (overlap weighted by access counts),
   so a cut that already matches the live layout produces *zero* moves
   instead of churning every record through a relabeling.
2. **Diff + gain ranking.**  Records whose aligned proposal differs
   from their live placement become move candidates — but only if
   their observed transactions actually *span* partitions today
   (``MIN_SPLIT_FRACTION``): a co-located group is never churned just
   because a fresh cut would balance it elsewhere.  Candidates are
   scored by ``split co-appearances x (1 + normalized contention
   likelihood)`` — the hot, contended records whose transactions pay
   for distribution move first.
3. **Budgeting.**  Only the top ``max_moves_per_epoch`` candidates
   above ``min_gain`` survive into the :class:`MigrationPlan`; the
   migration executor applies them one locking transaction at a time,
   so an epoch's disruption is strictly bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._stats import stat
from ..core.contention import normalize
from ..core.partitioner import ChillerPartitionerConfig, partition_workload
from ..storage import RecordId
from .telemetry import TelemetryWindow

PLACEMENTS = ("static", "adaptive")
"""Placement policies a run can select (``RunConfig.placement``)."""

MIN_SPLIT_FRACTION = 0.5
"""A record only becomes a move candidate when at least this fraction
of its sampled transactions span multiple partitions under the
*current* placement.  This is the anti-churn rule: a fresh min-cut is
free to re-balance co-located groups, but moving them wins no locality
— only records whose traffic actually pays for distribution are worth
a migration."""

CONTROLLER_HOME = 0
"""Engine that runs the controller loop (single-process backends), or
that holds the *election lease cell* (mp backend).  Telemetry is
engine-local (like the schedulers); the controller observes the engines
of its own worker process and flips routing cluster-wide."""

PLAN_CPU_US = 25.0
"""Modeled CPU charged to the controller's engine per re-plan."""

FLIP_CPU_US = 0.5
"""Modeled CPU a server spends applying one routing flip."""

LOCK_WINDOW_US = 10.0
"""Lock-hold window the re-plan's contention likelihoods assume."""

PLAN_EPS = 0.15
"""Balance slack of the re-plan's cut: L(p) <= (1 + eps) * mu."""

PLAN_SEED = 101
"""Seed of every re-plan's cut (one fixed seed across epochs)."""


@dataclass(frozen=True)
class PlacementSpec:
    """Picklable recipe for a run's placement policy.

    This is what ``RunConfig.placement`` holds and what multiprocess
    workers receive; live controllers/telemetry are built per process
    from it (they hold engine state and never cross a boundary).
    """

    kind: str = "static"
    epoch_us: float = 1_500.0
    """Re-planning period: simulated microseconds on the sim backend,
    wall-clock microseconds on aio/mp (both via the Sleep effect)."""

    max_moves_per_epoch: int = 16
    """The migration budget: top-K highest-gain moves per epoch."""

    min_gain: float = 3.0
    """Minimum move score (split co-appearances x (1 + likelihood));
    filters records observed once or twice — noise, not drift."""

    plan_sample_cap: int = 256
    """Most-recent samples fed into one re-plan.  The re-plan runs on
    the serving path (the controller's engine), so its Python cost
    must stay bounded no matter how fast commits arrive."""

    plan_record_cap: int = 1_024
    """Top records (by window access count) the re-plan's star graph
    may contain; colder records are pruned from the sampled footprints
    first.  Records too cold to clear this bar were never migration
    candidates anyway (min_gain would reject them) — this is the same
    philosophy as the paper's hot-record lookup table, applied to the
    planner's own cost: TPC-C-sized footprints otherwise grow the cut
    graph to hundreds of thousands of edges per epoch."""

    min_window_commits: int = 16
    """Don't re-plan on windows with fewer observed commits."""

    @property
    def adaptive(self) -> bool:
        return self.kind == "adaptive"


def as_placement_spec(placement: "PlacementSpec | str | None",
                      ) -> PlacementSpec:
    """Normalize ``RunConfig.placement`` (None, a kind name, or a full
    spec) into a :class:`PlacementSpec`."""
    if placement is None:
        return PlacementSpec(kind="static")
    if isinstance(placement, str):
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r} "
                             f"(expected one of {PLACEMENTS})")
        return PlacementSpec(kind=placement)
    return placement


@dataclass(frozen=True)
class PlannedMove:
    """One record move: ship (table, key) from ``src`` to ``dst``."""

    table: str
    key: object
    src: int
    dst: int
    gain: float


@dataclass(frozen=True)
class MigrationPlan:
    """One epoch's bounded move budget."""

    epoch: int
    moves: tuple[PlannedMove, ...]

    def __len__(self) -> int:
        return len(self.moves)


@dataclass
class PlacementStats:
    """Adaptive-placement counters, surfaced through ``Metrics``.

    Picklable; multiprocess workers ship theirs back to the parent,
    which folds them by the rules declared here.
    """

    placement: str = stat("static", fold="label")
    epochs: int = stat(timeline="placement_epochs")
    plans: int = stat(timeline="placement_plans")
    """Epochs that actually re-ran the partitioner (enough commits)."""

    commits_observed: int = 0
    moves_planned: int = 0
    moves_applied: int = stat(timeline="moves_applied")
    moves_conflicted: int = stat(timeline="moves_conflicted")
    """Moves skipped because the record was locked (NO_WAIT: the
    migration never waits on live transactions)."""

    moves_missing: int = 0
    """Moves skipped because the record vanished before the lock."""

    flips_applied: int = stat(timeline="flips_applied")
    """Routing-entry flips applied on this process's servers."""

    last_epoch: int = stat(fold="max")


class PlacementController:
    """Turns telemetry windows into bounded migration plans."""

    def __init__(self, spec: PlacementSpec):
        self.spec = spec

    def plan(self, window: TelemetryWindow, n_partitions: int,
             placement_of, epoch: int, movable=None) -> MigrationPlan:
        """Re-partition the observed window; diff against the live
        layout (``placement_of(table, key) -> partition``).

        ``movable(table) -> bool`` excludes tables whose records must
        never migrate (replicated tables resolve to the *reader*, so
        they have no placement to move — deleting a copy would be data
        loss, not migration).
        """
        spec = self.spec
        if (window.commits_observed < spec.min_window_commits
                or not window.samples):
            return MigrationPlan(epoch, ())
        samples = _bounded_samples(window, spec.plan_sample_cap,
                                   spec.plan_record_cap)
        if not samples:
            return MigrationPlan(epoch, ())
        likelihoods = window.likelihoods(LOCK_WINDOW_US)
        # one fixed seed across epochs: a re-observed group keeps
        # landing on the same cut side, so partially-applied plans
        # converge instead of bouncing between equally-balanced cuts
        partitioning = partition_workload(
            samples, likelihoods, n_partitions,
            ChillerPartitionerConfig(eps=PLAN_EPS, seed=PLAN_SEED))
        proposal = partitioning.record_assignment
        current = {rid: placement_of(rid[0], rid[1]) for rid in proposal}
        relabel = _align_labels(proposal, current, window, n_partitions)
        split, appearances = _split_counts(samples, current)
        normalized = normalize(likelihoods)
        candidates = []
        for rid, label in proposal.items():
            if movable is not None and not movable(rid[0]):
                continue
            dst = relabel[label]
            src = current[rid]
            if dst == src:
                continue
            seen = appearances.get(rid, 0)
            split_count = split.get(rid, 0)
            if (seen == 0
                    or split_count < MIN_SPLIT_FRACTION * seen):
                continue  # its traffic is already co-located: don't churn
            gain = split_count * (1.0 + normalized.get(rid, 0.0))
            if gain >= spec.min_gain:
                candidates.append(PlannedMove(rid[0], rid[1], src, dst,
                                              gain))
        candidates.sort(key=lambda m: (-m.gain, m.table, str(m.key)))
        return MigrationPlan(epoch,
                             tuple(candidates[:spec.max_moves_per_epoch]))


def _bounded_samples(window: TelemetryWindow, sample_cap: int,
                     record_cap: int) -> list:
    """The planner's bounded view of the window: the most recent
    ``sample_cap`` footprints, pruned to the ``record_cap`` hottest
    records (footprints that keep fewer than two records carry no
    co-access signal and are dropped)."""
    from ..core.stats import TxnSample
    samples = list(window.samples[-sample_cap:])
    n_records = len(window.read_counts) + sum(
        1 for rid in window.write_counts if rid not in window.read_counts)
    if n_records <= record_cap:
        return samples
    by_heat = sorted(window.records(),
                     key=lambda rid: (-window.accesses(rid), rid))
    keep = set(by_heat[:record_cap])
    bounded = []
    for sample in samples:
        reads = tuple(rid for rid in sample.reads if rid in keep)
        writes = tuple(rid for rid in sample.writes if rid in keep)
        if len(reads) + len(writes) >= 2:
            bounded.append(TxnSample(sample.proc, reads, writes))
    return bounded


def _split_counts(samples, current: dict[RecordId, int],
                  ) -> tuple[dict[RecordId, int], dict[RecordId, int]]:
    """Per record: sampled transactions it appeared in that spanned
    multiple partitions under the current placement, and total
    appearances.  Records outside ``current`` (pruned from the plan)
    contribute nothing."""
    split: dict[RecordId, int] = {}
    appearances: dict[RecordId, int] = {}
    for sample in samples:
        rids = [rid for rid in sample.records() if rid in current]
        first = None
        distributed = False
        for rid in rids:
            partition = current[rid]
            if first is None:
                first = partition
            elif partition != first:
                distributed = True
                break
        for rid in rids:
            appearances[rid] = appearances.get(rid, 0) + 1
            if distributed:
                split[rid] = split.get(rid, 0) + 1
    return split, appearances


def _align_labels(proposal: dict[RecordId, int],
                  current: dict[RecordId, int],
                  window: TelemetryWindow,
                  n_partitions: int) -> dict[int, int]:
    """Map cut labels to cluster partitions by greedy max overlap.

    Overlap is weighted by access counts, so the mapping preserves the
    placement of the traffic that matters; a cut identical to the live
    layout maps to the identity and yields zero moves.
    """
    overlap: dict[tuple[int, int], float] = {}
    for rid, label in proposal.items():
        weight = float(window.accesses(rid)) or 1.0
        key = (label, current[rid])
        overlap[key] = overlap.get(key, 0.0) + weight
    pairs = sorted(overlap.items(),
                   key=lambda item: (-item[1], item[0]))
    relabel: dict[int, int] = {}
    taken: set[int] = set()
    for (label, partition), _weight in pairs:
        if label in relabel or partition in taken:
            continue
        relabel[label] = partition
        taken.add(partition)
    free = [p for p in range(n_partitions) if p not in taken]
    for label in range(n_partitions):
        if label not in relabel:
            relabel[label] = free.pop(0) if free else label
    return relabel
