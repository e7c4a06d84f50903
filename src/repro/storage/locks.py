"""Shared/exclusive lock words with NO_WAIT semantics.

Chiller embeds the lock directly in the bucket header so remote engines
can manipulate it with one-sided RDMA atomics instead of messaging a lock
manager (Section 6).  We model that lock word here: acquisition either
succeeds immediately or fails immediately (NO_WAIT — the caller must
abort), which also rules out deadlocks, as in the paper.
"""

from __future__ import annotations

import enum


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockWord:
    """A shared/exclusive lock with owner tracking and NO_WAIT acquire.

    Shared holders are a tuple of distinct owners, the shared empty tuple
    when there are none: a word that is only ever taken exclusively
    carries no container of its own, and an exclusive acquire builds
    nothing.  Owners are compared by ``in`` (identity, then ``==``), so
    ``1`` and ``True`` are one owner.
    """

    __slots__ = ("_shared", "_exclusive")

    def __init__(self) -> None:
        self._shared: tuple[object, ...] = ()
        self._exclusive: object | None = None

    def try_acquire(self, mode: LockMode, owner: object) -> bool:
        """Attempt to acquire; returns False (caller aborts) on conflict.

        Re-entrant for the same owner.  A sole shared holder may upgrade
        to exclusive.
        """
        if mode is LockMode.SHARED:
            if self._exclusive is not None and self._exclusive != owner:
                return False
            if owner not in self._shared:
                self._shared += (owner,)
            return True
        if self._exclusive == owner:
            return True
        if self._exclusive is not None:
            return False
        shared = self._shared
        if shared:
            if len(shared) > 1 or owner not in shared:
                return False
            self._shared = ()
        self._exclusive = owner
        return True

    def admits(self, mode: LockMode) -> bool:
        """Would :meth:`try_acquire` in ``mode`` grant an owner that
        holds nothing here?  A query: it changes nothing.

        It is also the answer for an owner that has only *checked*
        (never taken) this word, whatever it checked before: the
        shared->exclusive upgrade a sole holder may make is granted
        exactly when the word is free of anyone else.
        """
        if mode is LockMode.SHARED:
            return self._exclusive is None
        return self._exclusive is None and not self._shared

    def release(self, owner: object) -> None:
        """Release whatever ``owner`` holds; raises if it holds nothing."""
        held = False
        if self._exclusive == owner:
            self._exclusive = None
            held = True
        shared = self._shared
        if owner in shared:
            i = shared.index(owner)
            self._shared = shared[:i] + shared[i + 1:]
            held = True
        if not held:
            raise KeyError(f"{owner!r} does not hold this lock")

    def held_by(self, owner: object) -> LockMode | None:
        """The mode ``owner`` currently holds, or None."""
        if self._exclusive == owner:
            return LockMode.EXCLUSIVE
        if owner in self._shared:
            return LockMode.SHARED
        return None

    def is_free(self) -> bool:
        return self._exclusive is None and not self._shared

    def holders(self) -> set[object]:
        """All owners currently holding the lock (any mode)."""
        out = set(self._shared)
        if self._exclusive is not None:
            out.add(self._exclusive)
        return out

    def __repr__(self) -> str:
        if self._exclusive is not None:
            return f"LockWord(X by {self._exclusive!r})"
        if self._shared:
            return f"LockWord(S by {len(self._shared)})"
        return "LockWord(free)"
