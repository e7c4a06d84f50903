"""Unit and property tests for the NO_WAIT lock word."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import LockMode, LockWord


def test_shared_locks_are_compatible():
    lock = LockWord()
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.try_acquire(LockMode.SHARED, "t2")
    assert lock.holders() == {"t1", "t2"}


def test_exclusive_blocks_shared():
    lock = LockWord()
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    assert not lock.try_acquire(LockMode.SHARED, "t2")


def test_shared_blocks_exclusive():
    lock = LockWord()
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert not lock.try_acquire(LockMode.EXCLUSIVE, "t2")


def test_exclusive_blocks_exclusive():
    lock = LockWord()
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    assert not lock.try_acquire(LockMode.EXCLUSIVE, "t2")


def test_reentrant_shared():
    lock = LockWord()
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.try_acquire(LockMode.SHARED, "t1")
    lock.release("t1")
    assert lock.is_free()


def test_reentrant_exclusive():
    lock = LockWord()
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    lock.release("t1")
    assert lock.is_free()


def test_exclusive_holder_may_request_shared():
    lock = LockWord()
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.held_by("t1") == LockMode.EXCLUSIVE


def test_sole_shared_holder_upgrades():
    lock = LockWord()
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    assert lock.held_by("t1") == LockMode.EXCLUSIVE


def test_upgrade_fails_with_other_shared_holders():
    lock = LockWord()
    assert lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.try_acquire(LockMode.SHARED, "t2")
    assert not lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    # t1 keeps its shared lock after the failed upgrade
    assert lock.held_by("t1") == LockMode.SHARED


def test_release_frees_for_others():
    lock = LockWord()
    lock.try_acquire(LockMode.EXCLUSIVE, "t1")
    lock.release("t1")
    assert lock.try_acquire(LockMode.EXCLUSIVE, "t2")


def test_release_without_hold_raises():
    lock = LockWord()
    with pytest.raises(KeyError):
        lock.release("nobody")


def test_held_by_reports_mode():
    lock = LockWord()
    assert lock.held_by("t1") is None
    lock.try_acquire(LockMode.SHARED, "t1")
    assert lock.held_by("t1") == LockMode.SHARED


@given(st.lists(st.tuples(st.integers(0, 4),
                          st.sampled_from([LockMode.SHARED,
                                           LockMode.EXCLUSIVE]),
                          st.booleans()),
                max_size=60))
def test_lock_word_safety_invariant(ops):
    """Under any sequence of try/release, the X/S invariant holds:

    - at most one exclusive holder, and
    - never an exclusive holder concurrently with a *different* shared one.
    """
    lock = LockWord()
    held: dict[int, LockMode] = {}
    for owner, mode, do_release in ops:
        if do_release and owner in held:
            lock.release(owner)
            del held[owner]
        elif not do_release:
            if lock.try_acquire(mode, owner):
                prev = held.get(owner)
                if prev != LockMode.EXCLUSIVE:
                    held[owner] = mode
        exclusives = [o for o, m in held.items()
                      if m == LockMode.EXCLUSIVE]
        shareds = [o for o, m in held.items() if m == LockMode.SHARED]
        assert len(exclusives) <= 1
        if exclusives:
            assert all(s == exclusives[0] for s in shareds)
        # the lock word agrees with our model
        assert lock.holders() == set(held)


class SetLockWord:
    """The lock word as it was when shared holders were a set: the
    reference the tuple-holding word must agree with, call for call."""

    def __init__(self):
        self._shared = set()
        self._exclusive = None

    def try_acquire(self, mode, owner):
        if mode is LockMode.SHARED:
            if self._exclusive is not None and self._exclusive != owner:
                return False
            self._shared.add(owner)
            return True
        if self._exclusive == owner:
            return True
        if self._exclusive is not None:
            return False
        if self._shared - {owner}:
            return False
        self._exclusive = owner
        self._shared.discard(owner)
        return True

    def release(self, owner):
        held = False
        if self._exclusive == owner:
            self._exclusive = None
            held = True
        if owner in self._shared:
            self._shared.discard(owner)
            held = True
        if not held:
            raise KeyError(f"{owner!r} does not hold this lock")

    def held_by(self, owner):
        if self._exclusive == owner:
            return LockMode.EXCLUSIVE
        if owner in self._shared:
            return LockMode.SHARED
        return None

    def is_free(self):
        return self._exclusive is None and not self._shared

    def holders(self):
        out = set(self._shared)
        if self._exclusive is not None:
            out.add(self._exclusive)
        return out


OWNERS = [0, 1, 2, True, False, ("inner", 0), ("inner", 1), ("inner", True)]
"""Executor owners (ints), inner-region owners, and the ``True == 1``
pair a set conflates."""


def outcome(call, *args):
    try:
        return call(*args)
    except KeyError:
        return KeyError


def exact(owners):
    """A holder set compared by type and value (``{True} == {1}``)."""
    return sorted((type(owner).__name__, repr(owner)) for owner in owners)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["shared", "exclusive",
                                           "release"]),
                          st.sampled_from(OWNERS)),
                max_size=40))
def test_tuple_holders_match_the_set_lock_word(ops):
    lock, reference = LockWord(), SetLockWord()
    for verb, owner in ops:
        if verb == "release":
            got = outcome(lock.release, owner)
            want = outcome(reference.release, owner)
        else:
            mode = LockMode(verb)
            got = lock.try_acquire(mode, owner)
            want = reference.try_acquire(mode, owner)
        assert got == want
        assert lock.is_free() == reference.is_free()
        assert exact(lock.holders()) == exact(reference.holders())
        for probe in OWNERS:
            assert lock.held_by(probe) == reference.held_by(probe)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["shared", "exclusive"]),
                          st.sampled_from(OWNERS)), max_size=6))
def test_admits_is_try_acquire_by_an_owner_holding_nothing(ops):
    lock = LockWord()
    for verb, owner in ops:
        lock.try_acquire(LockMode(verb), owner)
    for mode in LockMode:
        before = exact(lock.holders())
        probe = SetLockWord()
        probe._shared, probe._exclusive = (set(lock._shared),
                                           lock._exclusive)
        assert lock.admits(mode) == probe.try_acquire(mode, "newcomer")
        assert exact(lock.holders()) == before


def test_an_unshared_lock_word_holds_no_tracked_container():
    lock = LockWord()
    assert lock.try_acquire(LockMode.EXCLUSIVE, 1)
    assert lock.try_acquire(LockMode.EXCLUSIVE, 1)
    lock.release(1)
    # the word itself is the one GC-tracked object; a set would be two
    assert not gc.is_tracked(lock._shared)
    assert lock.try_acquire(LockMode.SHARED, 1)
    assert lock.try_acquire(LockMode.EXCLUSIVE, 1)      # upgrade
    assert not gc.is_tracked(lock._shared)
