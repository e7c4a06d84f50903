"""The one fold (``repro._stats``) over every class it serves.

One property in place of a hand-listed merge test per class: folding
one part is the identity, ``fold`` is associative and blind to the
order of the parts, timeline counters only grow under it, and every
class survives pickling (mp workers ship them home).  Instances are
generated from the dataclass fields themselves, so a counter added to
any class is covered the day it is declared — and a field whose type
its rule cannot combine (a ``str`` left to sum) fails here, not in a
run.

Below the property sit the reference oracles: the hand-written
``merge_from`` bodies the fold replaced, verbatim, for the classes
whose rules are subtle (``wal_mode`` / ``placement`` "last non-default
wins", ``queue_depth`` as a max, books nested two deep).
"""

import copy
import dataclasses
import inspect
import pickle
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._stats import counters, fold, folded, report, stat
from repro.bench.metrics import (LatencyHistogram, Metrics, OpenLoopStats,
                                 TenantTraffic)
from repro.obs import TraceData
from repro.placement import PlacementStats
from repro.sched import SchedulerStats
from repro.sim import NetworkStats
from repro.storage import RecoveryStats

SERVED = (LatencyHistogram, TenantTraffic, OpenLoopStats, SchedulerStats,
          RecoveryStats, PlacementStats, NetworkStats, TraceData, Metrics)

# halves add exactly in binary floating point, so (a + b) + c == a + (b + c)
COUNTS = st.integers(0, 1_000)
HALVES = st.integers(0, 2_000).map(lambda n: n / 2)
NAMES = st.sampled_from(["gold", "standard", "lock_read", "commit"])
SPAN = st.tuples(st.integers(1, 9), HALVES)

UNTYPED = {
    # containers the classes annotate loosely
    (TraceData, "spans"): st.lists(SPAN, max_size=3),
    (TraceData, "exemplars"): st.dictionaries(
        NAMES, st.lists(SPAN, max_size=3), max_size=2),
    # opaque to the fold: it only concatenates them
    (Metrics, "outcomes"): st.lists(st.integers(0, 99), max_size=3),
    # no timeline rides a part
    (Metrics, "timeline"): st.none(),
}


def values_of(hint, spec=None) -> st.SearchStrategy:
    """A strategy for one field, from its resolved type hint."""
    if hint in (int, float):
        # a max folds from the field's default, so nothing reads below it
        floor = spec.default if spec and spec.metadata.get("fold") == "max" \
            else 0
        return (COUNTS if hint is int else HALVES).map(lambda n: n + floor)
    if hint is str:
        # a label is one name per run: a part either set it or did not
        assert spec.metadata.get("fold") == "label", \
            f"{spec.name}: only a label can be a str"
        return st.sampled_from([spec.default, "set"])
    if dataclasses.is_dataclass(hint):
        return instances(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        keys = COUNTS if args[0] is int else NAMES
        return st.dictionaries(keys, values_of(args[1]), max_size=3)
    if type(None) in args:  # X | None
        return st.none() | values_of(args[0])
    raise NotImplementedError(f"no strategy for {hint!r}")


def instances(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls, localns={"TraceData": TraceData})
    return st.builds(cls, **{
        spec.name: UNTYPED[cls, spec.name] if (cls, spec.name) in UNTYPED
        else values_of(hints[spec.name], spec)
        for spec in dataclasses.fields(cls)})


def canon(value):
    """Equality up to the order lists were concatenated in."""
    if dataclasses.is_dataclass(value):
        return {spec.name: canon(getattr(value, spec.name))
                for spec in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: canon(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted(map(repr, value))
    return value


def check_fold_laws(cls, a, b, c):
    for spec in dataclasses.fields(cls):
        assert spec.metadata.get("fold", "sum") in ("sum", "max", "label")
    before = copy.deepcopy((a, b, c))
    assert folded(cls, [a]) == a
    left = fold(folded(cls, [a, b]), c)
    right = fold(folded(cls, [a]), folded(cls, [b, c]))
    assert left == right
    assert canon(folded(cls, [c, a, b])) == canon(left)
    assert (a, b, c) == before, "folded() must leave its parts alone"
    for gauges in (False, True):
        grown = counters(left, gauges)
        for part in (a, b, c):
            for name, value in counters(part, gauges).items():
                assert grown[name] >= value, name
    assert pickle.loads(pickle.dumps(left)) == left
    assert list(report(left)) == list(report(cls()))


@pytest.mark.parametrize("cls", SERVED, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fold_is_an_order_blind_monoid_on_every_stats_class(cls, data):
    a, b, c = (data.draw(instances(cls)) for _ in "abc")
    check_fold_laws(cls, a, b, c)


def test_a_field_its_rule_cannot_combine_fails_the_property():
    @dataclasses.dataclass
    class Mislabeled:
        served: int = 0
        engine: str = "fifo"  # a name left to the default rule: sum

    with pytest.raises(AssertionError, match="only a label can be a str"):
        instances(Mislabeled)
    with pytest.raises(TypeError, match="cannot sum a str"):
        check_fold_laws(Mislabeled, *(Mislabeled(n, "conflict")
                                      for n in range(3)))


def test_declarations_read_as_documented():
    @dataclasses.dataclass
    class Example:
        admitted: int = stat(timeline="admitted")
        depth: int = stat(fold="max", timeline="queue_depth", report=None)
        n_classes: int = stat(report="conflict_classes")
        by_kind: dict = stat(dict, timeline="bytes")
        retries: int = 0

    x = Example(admitted=3, depth=2, n_classes=4, by_kind={"a": 5, "b": 6},
                retries=1)
    assert counters(x) == {"admitted": 3, "bytes": 11}
    assert counters(x, gauges=True) == {"queue_depth": 2}
    assert report(x) == {"admitted": 3, "conflict_classes": 4,
                         "by_kind": {"a": 5, "b": 6}, "retries": 1}


# -- the hand-written merges the fold replaced, as oracles -------------------

def scheduler_merge_from(self, other):
    self.scheduler = other.scheduler
    self.admitted += other.admitted
    self.completed += other.completed
    self.deferrals += other.deferrals
    self.sheds += other.sheds
    for book, theirs in ((self.defer_reasons, other.defer_reasons),
                         (self.shed_reasons, other.shed_reasons)):
        for reason, count in theirs.items():
            book[reason] = book.get(reason, 0) + count
    for tenant, theirs in other.tenant_sheds.items():
        book = self.tenant_sheds.setdefault(tenant, {})
        for reason, count in theirs.items():
            book[reason] = book.get(reason, 0) + count
    self.queue_depth = max(self.queue_depth, other.queue_depth)
    self.max_queue_depth = max(self.max_queue_depth,
                               other.max_queue_depth)
    self.queueing_delay_us += other.queueing_delay_us
    self.queued_admissions += other.queued_admissions
    self.n_classes += other.n_classes
    self.max_class_occupancy = max(self.max_class_occupancy,
                                   other.max_class_occupancy)
    self.window_widenings += other.window_widenings


def network_merge_from(self, other):
    self.one_sided_local += other.one_sided_local
    self.one_sided_remote += other.one_sided_remote
    self.messages += other.messages
    self.messages_local += other.messages_local
    self.one_sided_batches += other.one_sided_batches
    self.one_sided_batched_verbs += other.one_sided_batched_verbs
    self.wire_bytes_sent += other.wire_bytes_sent
    for kind, nbytes in other.bytes_by_kind.items():
        self.add_bytes(kind, nbytes, remote=True)
    for kind, nbytes in other.local_bytes_by_kind.items():
        self.add_bytes(kind, nbytes, remote=False)
    for server, per in other.bytes_by_server_kind.items():
        mine = self.bytes_by_server_kind.setdefault(server, {})
        for kind, nbytes in per.items():
            mine[kind] = mine.get(kind, 0) + nbytes


def recovery_merge_from(self, other):
    if other.wal_mode != "off":
        self.wal_mode = other.wal_mode
    self.wal_appends += other.wal_appends
    self.wal_fsyncs += other.wal_fsyncs
    self.wal_bytes += other.wal_bytes
    self.recoveries += other.recoveries
    self.txns_redone += other.txns_redone
    self.in_doubt_resolved += other.in_doubt_resolved
    self.controller_failovers += other.controller_failovers


def placement_merge_from(self, other):
    if other.placement != "static":
        self.placement = other.placement
    self.epochs += other.epochs
    self.plans += other.plans
    self.commits_observed += other.commits_observed
    self.moves_planned += other.moves_planned
    self.moves_applied += other.moves_applied
    self.moves_conflicted += other.moves_conflicted
    self.moves_missing += other.moves_missing
    self.flips_applied += other.flips_applied
    self.last_epoch = max(self.last_epoch, other.last_epoch)


def tenant_merge_from(self, other):
    self.deadline_us = max(self.deadline_us, other.deadline_us)
    self.scheduled += other.scheduled
    self.shed += other.shed
    self.committed += other.committed
    self.failed += other.failed
    self.in_slo += other.in_slo
    for index, count in other.histogram.counts.items():
        self.histogram.counts[index] = \
            self.histogram.counts.get(index, 0) + count
    self.histogram.n += other.histogram.n
    self.histogram.total_us += other.histogram.total_us
    self.histogram.max_us = max(self.histogram.max_us,
                                other.histogram.max_us)


ORACLES = {SchedulerStats: scheduler_merge_from,
           NetworkStats: network_merge_from,
           RecoveryStats: recovery_merge_from,
           PlacementStats: placement_merge_from,
           TenantTraffic: tenant_merge_from}


@pytest.mark.parametrize("cls", ORACLES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_matches_the_merge_from_it_replaced(cls, data):
    parts = data.draw(st.lists(instances(cls), max_size=4))
    # an oracle is frozen: a field declared after it was written stays
    # at its default here (the property above covers it from day one)
    known = set(re.findall(r"(?:self|other)\.(\w+)",
                           inspect.getsource(ORACLES[cls])))
    for spec in dataclasses.fields(cls):
        if spec.name not in known:
            for part in parts:
                setattr(part, spec.name, getattr(cls(), spec.name))
    want = cls()
    for part in copy.deepcopy(parts):
        ORACLES[cls](want, part)
    if cls is SchedulerStats:
        # the one deliberate difference: ``scheduler`` was "last part
        # wins" (fifo, the default, over conflict); it now shares the
        # label rule with wal_mode and placement.  Every engine of a
        # run has the same scheduler, so no run can tell.
        want.scheduler = max((p.scheduler for p in parts
                              if p.scheduler != "fifo"), default="fifo")
    assert folded(cls, parts) == want
