"""Small shared utilities: deterministic hashing and seeded RNG helpers.

Python's built-in ``hash`` is randomized per process for strings, which
would make partition placement non-deterministic across runs.  Everything
in this package that needs a hash of a key uses :func:`stable_hash`.
"""

from __future__ import annotations

import random
import zlib

_MASK64 = (1 << 64) - 1

MIX_MEMO_CAP = 16_384
"""Entries :data:`_mixed` holds before it is emptied.  On fixed-seed
TPC-C and hot-key YCSB runs 90 % and 93 % of rounds hit at this size
(84 % and 92 % at 4 096)."""

_mixed: dict[int, int] = {}
"""Memo of :func:`_splitmix64`, keyed on the round's input: an int in
``[0, 2**64)``, never a key object, so ``1`` and ``True`` cannot meet
here.  A pure function's memo cannot go stale; the cap only bounds it."""


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (deterministic, well-distributed)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix(x: int) -> int:
    """:func:`_splitmix64` through the memo (``x`` already masked)."""
    out = _mixed.get(x)
    if out is None:
        if len(_mixed) >= MIX_MEMO_CAP:
            _mixed.clear()
        out = _mixed[x] = _splitmix64(x)
    return out


def stable_hash(obj: object) -> int:
    """Deterministic 64-bit hash of ints, strings, bytes, and tuples thereof."""
    if isinstance(obj, tuple):
        # Keys repeat their small-int elements, and an order's lines
        # share the fold states of their common prefix, so both rounds
        # read the memo inline before paying for a call.
        memo = _mixed
        acc = 0x243F6A8885A308D3
        for item in obj:
            if item.__class__ is int:
                item &= _MASK64
                h = memo.get(item)
                if h is None:
                    h = _mix(item)
            else:
                h = stable_hash(item)
            acc ^= h
            h = memo.get(acc)
            acc = _mix(acc) if h is None else h
        return acc
    if isinstance(obj, bool):
        return _mix(int(obj) + 0x5BF0)
    if isinstance(obj, int):
        return _mix(obj & _MASK64)
    if isinstance(obj, str):
        return _mix(zlib.crc32(obj.encode("utf-8")))
    if isinstance(obj, bytes):
        return _mix(zlib.crc32(obj))
    raise TypeError(f"stable_hash does not support {type(obj).__name__}")


def make_rng(seed: int, *salt: object) -> random.Random:
    """Create an independent RNG stream derived from ``seed`` and ``salt``."""
    return random.Random(stable_hash((seed,) + salt))


class SeededOnDraw:
    """The :func:`make_rng` stream of ``seed`` and ``salt``, seeded on
    its first draw: a holder that never draws never pays for seeding a
    Mersenne Twister, and one that does draws exactly what
    ``make_rng(seed, *salt)`` would have given it."""

    __slots__ = ("_salt", "_rng")

    def __init__(self, seed: int, *salt: object):
        self._salt = (seed,) + salt
        self._rng: random.Random | None = None

    def __getattr__(self, name: str):
        rng = self._rng
        if rng is None:
            rng = self._rng = make_rng(*self._salt)
        return getattr(rng, name)
