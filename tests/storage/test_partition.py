"""Unit tests for PartitionStore: locks, record ops, span tracking."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import LockMode, PartitionStore, TableSpec


def make_store(track_spans=False, now=None):
    clock = {"t": 0.0}

    def now_fn():
        return clock["t"]

    store = PartitionStore(0, [TableSpec("acct", n_buckets=512)],
                           now_fn=now_fn, track_spans=track_spans)
    return store, clock


def test_load_and_read():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    fields, version = store.read("acct", 1)
    assert fields == {"balance": 100}
    assert version == 0


def test_read_missing_returns_none():
    store, _ = make_store()
    assert store.read("acct", 42) is None


def test_write_bumps_version():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    assert store.write("acct", 1, {"balance": 90})
    fields, version = store.read("acct", 1)
    assert fields["balance"] == 90
    assert version == 1


def test_write_missing_returns_false():
    store, _ = make_store()
    assert not store.write("acct", 9, {"x": 1})


def test_insert_and_delete():
    store, _ = make_store()
    assert store.insert("acct", 5, {"balance": 0})
    assert not store.insert("acct", 5, {"balance": 1})
    assert store.delete("acct", 5)
    assert not store.delete("acct", 5)


def test_try_lock_conflict_and_release_all():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    assert store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    assert not store.try_lock("acct", 1, LockMode.SHARED, "t2")
    assert store.release_all("t1") == 1
    assert store.try_lock("acct", 1, LockMode.SHARED, "t2")


def test_release_all_handles_same_bucket_reentry():
    """Two keys in the same bucket share a lock; release_all must not
    double-release it."""
    store = PartitionStore(0, [TableSpec("acct", n_buckets=1)])
    store.load("acct", 1, {})
    store.load("acct", 2, {})
    assert store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    assert store.try_lock("acct", 2, LockMode.EXCLUSIVE, "t1")
    # the shared lock word is tracked (and released) exactly once
    assert store.release_all("t1") == 1
    assert not store.is_locked("acct", 1)
    assert not store.is_locked("acct", 2)


def test_span_tracking_measures_lock_duration():
    store, clock = make_store(track_spans=True)
    store.load("acct", 1, {})
    clock["t"] = 10.0
    store.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    clock["t"] = 25.0
    store.release_all("t1")
    assert store.spans.mean_span("acct", 1) == pytest.approx(15.0)


def test_unknown_table_raises():
    store, _ = make_store()
    with pytest.raises(KeyError):
        store.read("nope", 1)


def test_duplicate_table_rejected():
    store, _ = make_store()
    with pytest.raises(ValueError):
        store.create_table(TableSpec("acct"))


def test_version_of():
    store, _ = make_store()
    store.load("acct", 1, {"balance": 5})
    assert store.version_of("acct", 1) == 0
    store.write("acct", 1, {"balance": 6})
    assert store.version_of("acct", 1) == 1
    assert store.version_of("acct", 99) is None


def test_lock_queries_never_make_a_lock_word():
    store, _ = make_store()
    store.load("acct", 1, {})
    assert not store.is_locked("acct", 1)
    assert not store.locked_by_other("acct", 1, "t1")
    assert store.table("acct").lock_words() == 0
    assert store.try_lock("acct", 1, LockMode.SHARED, "t1")
    assert store.table("acct").lock_words() == 1
    assert store.is_locked("acct", 1)
    assert not store.locked_by_other("acct", 1, "t1")   # mine
    assert store.locked_by_other("acct", 1, "t2")
    store.release_all("t1")
    assert not store.locked_by_other("acct", 1, "t2")   # free again
    assert store.table("acct").lock_words() == 1        # the word is kept


def test_check_lock_takes_nothing_and_makes_no_lock_word():
    store, _ = make_store()
    granted = set()
    assert store.check_lock("acct", 1, LockMode.EXCLUSIVE, granted)
    assert store.table("acct").lock_words() == 0
    assert store.try_lock("acct", 2, LockMode.SHARED, "t1")
    assert store.check_lock("acct", 2, LockMode.SHARED, granted)
    assert not store.check_lock("acct", 2, LockMode.EXCLUSIVE, granted)
    assert store.owners_holding() == ["t1"]
    assert granted == set()         # filled only for a span tracker


def _lock_steps():
    return st.tuples(st.integers(0, 7),
                     st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]))


@settings(max_examples=300, deadline=None)
@given(foreign=st.lists(st.tuples(st.sampled_from(["t1", "t2"]),
                                  _lock_steps()), max_size=6),
       section=st.lists(_lock_steps(), max_size=8))
def test_a_checked_section_decides_and_counts_as_a_taken_one(foreign,
                                                             section):
    """A section of ``check_lock`` calls (stopping at the first refusal)
    gets the grants and refusals a NO_WAIT owner taking the same locks
    in one event and then releasing them gets, and leaves the same span
    tracker totals: a second key in a shared bucket, the
    shared->exclusive upgrade and foreign shared holders included."""
    taken, checked = (PartitionStore(0, [TableSpec("acct", n_buckets=4)],
                                     track_spans=True) for _ in range(2))
    for store in (taken, checked):
        for owner, (key, mode) in foreign:
            store.try_lock("acct", key, mode, owner)
    words = checked.table("acct").lock_words()

    def decisions(decide):
        out = []
        for key, mode in section:
            out.append(decide(key, mode))
            if not out[-1]:
                break
        return out

    granted = set()
    want = decisions(lambda key, mode: taken.try_lock("acct", key, mode,
                                                      "inner"))
    taken.release_all("inner")
    got = decisions(lambda key, mode: checked.check_lock("acct", key, mode,
                                                         granted))
    assert got == want
    assert checked.table("acct").lock_words() == words
    for field in ("attempts", "conflicts", "acquisitions", "total_span"):
        assert (getattr(checked.spans, field)
                == getattr(taken.spans, field)), field


def test_clock_is_read_only_for_the_span_tracker():
    reads = []

    def now_fn():
        reads.append(1)
        return 0.0

    plain = PartitionStore(0, [TableSpec("acct")], now_fn=now_fn)
    plain.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    plain.try_lock("acct", 2, LockMode.EXCLUSIVE, "t1")
    plain.release_all("t1")
    assert not reads
    tracked = PartitionStore(0, [TableSpec("acct")], now_fn=now_fn,
                             track_spans=True)
    tracked.try_lock("acct", 1, LockMode.EXCLUSIVE, "t1")
    tracked.release_all("t1")
    assert len(reads) == 2


def test_redo_converges_whatever_the_store_already_saw():
    """Replicas and WAL replay re-apply writes to a store that may have
    seen any prefix of them: update falls back to insert, insert to
    write, delete of a missing record is a no-op."""
    store, _ = make_store()

    def redo(kind, values):
        return store.apply([(kind, "acct", 1, values)], redo=True)

    redo("update", {"balance": 5})                      # missed the insert
    assert store.read("acct", 1) == ({"balance": 5}, 0)
    redo("insert", {"balance": 7})                      # already landed
    assert store.read("acct", 1) == ({"balance": 7}, 1)
    redo("update", {"balance": 8})
    assert store.read("acct", 1) == ({"balance": 8}, 2)
    redo("delete", None)
    redo("delete", None)
    assert store.read("acct", 1) is None
    with pytest.raises(ValueError):
        redo("upsert", {})


def test_apply_reports_each_write_version_and_a_delete_negated():
    """A commit's write set in one call: an update bumps, an insert is
    0 and leaves a present record alone, a delete reports the version
    it ends negated; an update of a record gone under its lock changes
    nothing and reports no version."""
    store, _ = make_store()
    store.load("acct", 1, {"balance": 100})
    assert store.apply([("update", "acct", 1, {"balance": 90}),
                        ("insert", "acct", 5, {"balance": 0}),
                        ("insert", "acct", 5, {"balance": 1}),
                        ("update", "acct", 5, {"balance": 2}),
                        ("update", "acct", 5, {"balance": 3}),
                        ("delete", "acct", 5, None),
                        ("delete", "acct", 1, None),
                        ("update", "acct", 9, {"x": 1})], redo=False) == [
        (("acct", 1), 1), (("acct", 5), 0), (("acct", 5), 0),
        (("acct", 5), 1), (("acct", 5), 2), (("acct", 5), -3),
        (("acct", 1), -2), (("acct", 9), None)]
    assert [store.read("acct", key) for key in (1, 5, 9)] == [None] * 3
    store.load("acct", 1, {"balance": 7})
    with pytest.raises(ValueError):
        store.apply([("upsert", "acct", 1, {})], redo=False)


def test_install_sets_the_version_and_delete_drops_it():
    """An insert is version 0 and stores no version; ``install`` sets
    one (0 drops it) and ``delete`` drops it, so a re-insert is 0."""
    store, _ = make_store()
    fields = {"balance": 5}
    store.install("acct", 1, fields, 4)
    assert store.read("acct", 1) == (fields, 4)
    assert store.read("acct", 1)[0] is fields
    store.install("acct", 1, fields, 0)
    assert store.version_of("acct", 1) == 0
    assert store.table("acct").versions == {}
    store.write("acct", 1, {"balance": 6})
    assert store.delete("acct", 1) and store.table("acct").versions == {}
    assert store.insert("acct", 1, fields)
    assert store.read("acct", 1) == (fields, 0)


def test_a_check_in_an_unknown_table_still_raises():
    store, _ = make_store()
    with pytest.raises(KeyError):
        store.check_lock("nope", 1, LockMode.SHARED, set())


_TABLES = ("a", "b", "c")
_OWNERS = ("t1", "t2", "t3")


class HoldCountMachine(RuleBasedStateMachine):
    """Random lock takes, releases and reaps on a store with no span
    tracker: each table's hold count is its ``_held`` entries, and a
    check (which skips the bucket while the count is 0) answers what
    the bucket's lock word says."""

    def __init__(self):
        super().__init__()
        self.store = PartitionStore(
            0, [TableSpec(name, n_buckets=4) for name in _TABLES])

    @rule(table=st.sampled_from(_TABLES), key=st.integers(0, 9),
          mode=st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
          owner=st.sampled_from(_OWNERS))
    def take(self, table, key, mode, owner):
        self.store.try_lock(table, key, mode, owner)

    @rule(owner=st.sampled_from(_OWNERS))
    def release(self, owner):
        self.store.release_all(owner)

    @rule(reaped=st.sets(st.sampled_from(_OWNERS)))
    def reap(self, reaped):
        self.store.release_where(reaped.__contains__)

    @rule(table=st.sampled_from(_TABLES), key=st.integers(0, 9),
          mode=st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]))
    def check(self, table, key, mode):
        lock = self.store.table(table).lock_if_any(key)
        assert (self.store.check_lock(table, key, mode, set())
                == (lock is None or lock.admits(mode)))

    @invariant()
    def counts_are_the_held_entries(self):
        for table in _TABLES:
            entries = sum(entry[0] == table
                          for entries in self.store._held.values()
                          for entry in entries)
            assert self.store._holds[table] == entries, table
            words = self.store.table(table)._locks.values()
            assert (entries == 0) == all(w.is_free() for w in words), table


TestHoldCounts = HoldCountMachine.TestCase
TestHoldCounts.settings = settings(max_examples=150, stateful_step_count=40,
                                   deadline=None)
