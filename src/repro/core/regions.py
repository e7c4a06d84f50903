"""The run-time region decision (paper Section 3.3).

Given a transaction's concrete operation instances, the hot-record
table, and the dependency structure, decide:

1. whether to run as a *two-region* transaction at all (any admissible
   hot record?) — otherwise fall back to plain 2PL+2PC;
2. the **inner host**: the partition holding the most admissible hot
   records (only one partition may commit unilaterally);
3. the split: every operation whose record provably lives on the inner
   host — *and* whose pk-descendants all provably live there too — runs
   in the inner region; everything else is outer.  CHECKs run in the
   outer region when all their inputs come from outer reads (cheap early
   abort at the coordinator), otherwise inside the inner region.

A hot record h is *admissible* (step 1's rule) iff every operation
pk-dependent on h has a known placement on h's own partition; a child
whose key is still unknown, or known to live elsewhere, blocks h — it
could not be locked after the inner region committed unilaterally.

The split reads nothing of a transaction but its compiled layout, each
op's partition (or that it is unknown) and which exact READs are hot,
so :meth:`RegionPlanner.plan` memoises it under exactly that signature,
together with the two constants of a split that the inner host needs:
the inner op names and the inner region's CPU charge.  The signature
itself is read through per-layout slots compiled once (table, key or
hint function, whether an exact READ can be hot, whether the table is
replicated), and the exact keys it resolves ride with the plan to the
inline inner region, so no op's key is computed twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..analysis import OpInstance, OpKind
from ..analysis.procedures import OpShape
from ..storage import Catalog
from ..txn.common import CPU_APPLY_US, CPU_CHECK_US, CPU_LOCAL_OP_US
from .lookup import HotRecordTable

PLAN_CACHE_CAP = 4096
"""Splits a plan cache keeps before it starts over (the TPC-C cell meets
about 150 distinct signatures)."""

_Split = tuple[bool, "int | None", tuple[int, ...], tuple[int, ...], int, int,
               tuple[str, ...], float]
"""A cached :class:`RegionPlan`: ops as positions in the instantiation,
then the inner names and CPU charge."""

_Slot = tuple[str, Callable[[Mapping[str, Any], Any], Any], bool, bool,
              bool] | None
"""One op of a compiled layout, as :meth:`RegionPlanner._signature`
reads it: ``(table, fn, exact, hot_read, replicated)``, where
``fn(params, item)`` gives the key (``exact``) or its partition hint,
``hot_read`` says the op is an exact READ (the only kind that can be
hot) and ``replicated`` that the record is the reader's own copy, found
with no catalog call; None when the location is unknowable before
execution."""


def inner_cpu_us(instances: list[OpInstance]) -> float:
    """CPU the inner host charges to run ``instances`` as one inner
    region: one contiguous block for every local record op, CHECK and
    applied write (Section 3.3's "no stall")."""
    n_record_ops = sum(1 for inst in instances
                       if inst.spec.kind is not OpKind.CHECK)
    n_checks = len(instances) - n_record_ops
    n_writes = sum(1 for inst in instances if inst.spec.is_write())
    return (CPU_LOCAL_OP_US * n_record_ops + CPU_CHECK_US * n_checks
            + CPU_APPLY_US * max(1, n_writes))


@dataclass
class RegionPlan:
    """The outer/inner split for one transaction."""

    two_region: bool
    inner_host: int | None
    inner: list[OpInstance] = field(default_factory=list)
    outer: list[OpInstance] = field(default_factory=list)
    hot_inner_records: int = 0
    blocked_hot_records: int = 0
    names: tuple[str, ...] = ()
    """``inner``'s op names, in order (what the inner request ships)."""
    inner_cpu_us: float = 0.0
    """:func:`inner_cpu_us` of ``inner`` (0 for a one-region plan)."""
    inner_keys: list = field(default_factory=list)
    """``inner``'s exact keys, in order, as the signature resolved them;
    None where a key is derived and resolved inside the region."""

    def inner_names(self) -> tuple[str, ...]:
        return self.names


class RegionPlanner:
    """Plans two-region execution for the transactions ``home``
    coordinates (replicated tables resolve to ``home``).

    ``cache`` maps a signature (:meth:`_signature`) to its split; pass
    one dict to several planners to share what they learn.  It holds
    layouts and index tuples, never an instance or a transaction, and
    needs no invalidation: a placement flip changes the signature.
    """

    def __init__(self, hot_table: HotRecordTable, catalog: Catalog,
                 home: int, cache: dict[tuple, _Split] | None = None):
        self.hot_table = hot_table
        self.catalog = catalog
        self.home = home
        self.cache: dict[tuple, _Split] = {} if cache is None else cache
        self._slots: dict[OpShape, tuple[_Slot, ...]] = {}
        """Compiled slots per layout, keyed by its first shape."""

    def plan(self, instances: list[OpInstance],
             params: Mapping[str, Any]) -> RegionPlan:
        """Split one transaction's full instantiation
        (``proc.instantiate(params)``) into regions.  Names, dependency
        tuples and pk-children come compiled with the instances; only
        placements and hotness are evaluated here, and the split itself
        only on the first sight of a signature."""
        signature, keys = self._signature(instances, params)
        split = self.cache.get(signature)
        if split is None:
            plan = self._split(instances, params)
            position = {inst.name: i for i, inst in enumerate(instances)}
            if plan.two_region:
                plan.names = tuple(inst.name for inst in plan.inner)
                plan.inner_cpu_us = inner_cpu_us(plan.inner)
                plan.inner_keys = [keys[position[inst.name]]
                                   for inst in plan.inner]
            if len(self.cache) >= PLAN_CACHE_CAP:
                self.cache.clear()
            self.cache[signature] = (
                plan.two_region, plan.inner_host,
                tuple(position[inst.name] for inst in plan.inner),
                tuple(position[inst.name] for inst in plan.outer),
                plan.hot_inner_records, plan.blocked_hot_records,
                plan.names, plan.inner_cpu_us)
            return plan
        (two_region, inner_host, inner, outer, hot_inner, blocked, names,
         cpu_us) = split
        return RegionPlan(two_region, inner_host,
                          [instances[i] for i in inner],
                          [instances[i] for i in outer],
                          hot_inner, blocked, names, cpu_us,
                          [keys[i] for i in inner])

    def _signature(self, instances: list[OpInstance],
                   params: Mapping[str, Any]) -> tuple[tuple, list]:
        """Everything :meth:`_split` reads, and the keys it resolved on
        the way (None where not exact).  The signature is the layout
        (named by its first compiled shape, which belongs to that layout
        alone), then per op ``None`` when its placement is unknown
        before execution, else ``2 * partition + hot`` — hot only for an
        exact READ."""
        if not instances:
            return (), []
        first = instances[0].shape
        slots = self._slots.get(first)
        if slots is None:
            slots = self._compile(instances)
        is_hot, partition_of = self.hot_table.is_hot, self.catalog.partition_of
        home = self.home
        signature: list = [first]
        keys: list = []
        for slot, inst in zip(slots, instances):
            key = None if slot is None else slot[1](params, inst.item)
            if key is None:
                signature.append(None)
                keys.append(None)
                continue
            table, _fn, exact, hot_read, replicated = slot
            pid = home if replicated else partition_of(table, key)
            signature.append(2 * pid + is_hot(table, key) if hot_read
                             else 2 * pid)
            keys.append(key if exact else None)
        return tuple(signature), keys

    def _compile(self, instances: list[OpInstance]) -> tuple[_Slot, ...]:
        """The slots of ``instances``' layout, kept until the cache is
        emptied."""
        replicated = self.catalog.replicated_tables
        slots = tuple(
            None if (place := inst.shape.place) is None else
            (place[0], place[1], place[2],
             place[2] and inst.spec.kind is OpKind.READ,
             place[0] in replicated)
            for inst in instances)
        if len(self._slots) >= PLAN_CACHE_CAP:
            self._slots.clear()
        self._slots[instances[0].shape] = slots
        return slots

    def _split(self, instances: list[OpInstance],
               params: Mapping[str, Any]) -> RegionPlan:
        """The decision itself, from scratch."""
        placements = self._placements(instances, params)
        children = {inst.name: inst.pk_child_instances()
                    for inst in instances}

        hot_reads: list[tuple[OpInstance, int]] = []
        blocked = 0
        for inst in instances:
            if inst.spec.kind is not OpKind.READ:
                continue
            info = placements.get(inst.name)
            if info is None or not info[2]:
                continue  # unknown or inexact: cannot be a hot candidate
            table, key, _exact, pid = info[0], info[1], info[2], info[3]
            if not self.hot_table.is_hot(table, key):
                continue
            if self._subtree_on(inst.name, pid, children, placements):
                hot_reads.append((inst, pid))
            else:
                blocked += 1

        if not hot_reads:
            return RegionPlan(two_region=False, inner_host=None,
                              outer=list(instances),
                              blocked_hot_records=blocked)

        votes = Counter(pid for _inst, pid in hot_reads)
        inner_host = min(votes, key=lambda pid: (-votes[pid], pid))

        inner_names: set[str] = set()
        for inst in instances:
            info = placements.get(inst.name)
            if info is None or info[3] != inner_host:
                continue
            if self._subtree_on(inst.name, inner_host, children,
                                placements):
                inner_names.add(inst.name)
        # updates/deletes ride with their target read's region
        for inst in instances:
            if inst.spec.kind in (OpKind.UPDATE, OpKind.DELETE):
                if inst.target_instance() in inner_names:
                    inner_names.add(inst.name)
                else:
                    inner_names.discard(inst.name)

        inner, outer = [], []
        outer_bindings = {
            inst.name for inst in instances
            if inst.spec.kind is OpKind.READ
            and inst.name not in inner_names}
        for inst in instances:
            if inst.spec.kind is OpKind.CHECK:
                if outer_bindings.issuperset(inst.dep_instance_names()):
                    outer.append(inst)
                else:
                    inner.append(inst)
            elif inst.name in inner_names:
                inner.append(inst)
            else:
                outer.append(inst)

        hot_on_host = {inst.name for inst, pid in hot_reads
                       if pid == inner_host}
        inner = self._reorder_hot_last(inner, hot_on_host, children)
        self._assert_no_inner_to_outer_pk_edge(inner, outer)
        return RegionPlan(two_region=True, inner_host=inner_host,
                          inner=inner, outer=outer,
                          hot_inner_records=votes[inner_host],
                          blocked_hot_records=blocked)

    @staticmethod
    def _reorder_hot_last(inner: list[OpInstance], hot_names: set[str],
                          children: Mapping[str, tuple[str, ...]],
                          ) -> list[OpInstance]:
        """The paper's idea (1): postpone the hot records' lock
        acquisition to the very end of the inner region.

        The late set is the hot reads plus everything that *must*
        follow them: pk-descendants (their keys need the hot values)
        and any op value-depending on a late op (CHECK predicates,
        updates of hot reads).  Relative program order is preserved
        inside both groups, so every dependency stays forward.
        """
        late = set(hot_names)
        stack = list(hot_names)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in late:
                    late.add(child)
                    stack.append(child)
        changed = True
        while changed:
            changed = False
            for inst in inner:
                if inst.name in late:
                    continue
                if any(dep in late for dep in inst.dep_instance_names()):
                    late.add(inst.name)
                    changed = True
        early = [inst for inst in inner if inst.name not in late]
        tail = [inst for inst in inner if inst.name in late]
        return early + tail

    # -- internals ---------------------------------------------------------

    def _placements(self, instances: list[OpInstance],
                    params: Mapping[str, Any],
                    ) -> dict[str, tuple[str, Any, bool, int]]:
        """name -> (table, key-or-hint, exact, partition); absent when
        the location is unknowable before execution."""
        out: dict[str, tuple[str, Any, bool, int]] = {}
        for inst in instances:
            placement = inst.placement(params)
            if placement is None or not placement.known():
                continue
            pid = self.catalog.partition_of(placement.table, placement.key,
                                            self.home)
            out[inst.name] = (placement.table, placement.key,
                              placement.exact, pid)
        return out

    def _subtree_on(self, name: str, pid: int,
                    children: Mapping[str, tuple[str, ...]],
                    placements: Mapping[str, tuple],
                    ) -> bool:
        """All pk-descendants of ``name`` provably live on ``pid``."""
        stack = list(children.get(name, ()))
        while stack:
            descendant = stack.pop()
            info = placements.get(descendant)
            if info is None or info[3] != pid:
                return False
            stack.extend(children.get(descendant, ()))
        return True

    @staticmethod
    def _assert_no_inner_to_outer_pk_edge(inner, outer) -> None:
        inner_names = {inst.name for inst in inner}
        for inst in outer:
            for parent in inst.pk_source_instances():
                if parent in inner_names:
                    raise RuntimeError(
                        f"illegal region split: outer op {inst.name!r} "
                        f"pk-depends on inner op {parent!r}")
