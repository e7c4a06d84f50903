"""Tests for the hot-record lookup table."""

import pytest

from repro.core import HotRecordTable
from repro.partitioning import HashScheme


def test_basic_membership_and_partition():
    table = HotRecordTable({("stock", 1): 2, ("stock", 5): 0})
    assert ("stock", 1) in table
    assert table.is_hot("stock", 1)
    assert not table.is_hot("stock", 99)
    assert table.partition("stock", 1) == 2
    assert table.partition("stock", 99) is None
    assert len(table) == 2


def test_scheme_overrides_only_hot_records():
    fallback = HashScheme(4)
    table = HotRecordTable({("stock", 1): 3})
    scheme = table.scheme(fallback)
    assert scheme.partition_of("stock", 1) == 3
    assert (scheme.partition_of("stock", 2)
            == fallback.partition_of("stock", 2))
    assert scheme.lookup_table_size() == 1


def test_from_assignment_applies_threshold():
    assignment = {("stock", 1): 0, ("stock", 2): 1, ("stock", 3): 0}
    likelihoods = {("stock", 1): 1.0, ("stock", 2): 0.5,
                   ("stock", 3): 0.01}
    table = HotRecordTable.from_assignment(assignment, likelihoods,
                                           threshold=0.1)
    assert ("stock", 1) in table
    assert ("stock", 2) in table
    assert ("stock", 3) not in table


def test_from_assignment_invalid_threshold():
    with pytest.raises(ValueError):
        HotRecordTable.from_assignment({}, {}, threshold=1.5)


def test_from_stats_normalizes_and_places():
    fallback = HashScheme(4)
    likelihoods = {("stock", 1): 0.2, ("stock", 2): 0.002}
    table = HotRecordTable.from_stats(likelihoods, threshold=0.1,
                                      placement=fallback.partition_of)
    assert ("stock", 1) in table  # normalized to 1.0
    assert ("stock", 2) not in table  # normalized to 0.01
    assert (table.partition("stock", 1)
            == fallback.partition_of("stock", 1))


def test_empty_table():
    table = HotRecordTable.empty()
    assert len(table) == 0
    assert not table.is_hot("x", 1)
    assert len(table) == 0


# -- epoch-versioned migration support ----------------------------------------


def test_apply_move_flips_and_versions_the_entry():
    table = HotRecordTable({("stock", 1): 0})
    assert table.current_epoch == 0
    table.apply_move("stock", 1, 3, epoch=1)
    assert table.partition("stock", 1) == 3
    assert table.current_epoch == 1
    # the flip's epoch classifies in-flight transactions' read misses
    assert table.moved_since("stock", 1, 0)
    assert not table.moved_since("stock", 1, 1)


def test_apply_move_is_idempotent_per_epoch():
    table = HotRecordTable.empty()
    for _ in range(3):  # broadcast re-delivery on shared catalogs
        table.apply_move("stock", 7, 2, epoch=1)
    assert table.current_epoch == 1
    assert table.partition("stock", 7) == 2
    assert table.moved_since("stock", 7, 0)
    assert not table.moved_since("stock", 7, 1)


def test_apply_move_rejects_epoch_zero():
    with pytest.raises(ValueError):
        HotRecordTable.empty().apply_move("stock", 1, 0, epoch=0)


def test_live_scheme_reads_through_migrations():
    fallback = HashScheme(4)
    table = HotRecordTable.empty()
    scheme = table.live_scheme(fallback)
    key = ("stock", 9)
    assert scheme.partition_of(*key) == fallback.partition_of(*key)
    dst = (fallback.partition_of(*key) + 1) % 4
    scheme.apply_move("stock", 9, dst, epoch=1)
    assert scheme.partition_of(*key) == dst
    assert scheme.current_epoch == 1
    assert scheme.moved_since("stock", 9, 0)
    assert key in scheme.entries
    assert scheme.lookup_table_size() == 1


def test_snapshot_scheme_ignores_later_moves():
    table = HotRecordTable({("stock", 1): 0})
    snapshot = table.scheme(HashScheme(4))
    table.apply_move("stock", 1, 3, epoch=1)
    assert snapshot.partition_of("stock", 1) == 0  # frozen view
    assert table.live_scheme(HashScheme(4)).partition_of("stock", 1) == 3
