"""Small shared utilities: deterministic hashing and seeded RNG helpers.

Python's built-in ``hash`` is randomized per process for strings, which
would make partition placement non-deterministic across runs.  Everything
in this package that needs a hash of a key uses :func:`stable_hash`.
"""

from __future__ import annotations

import random
import zlib
from marshal import dumps as _marshal

_MASK64 = (1 << 64) - 1

HASH_MEMO_CAP = 4096
"""Entries a :class:`HashMemo` holds before it starts over."""


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (deterministic, well-distributed)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_hash(obj: object) -> int:
    """Deterministic 64-bit hash of ints, strings, bytes, and tuples thereof."""
    if isinstance(obj, bool):
        return _splitmix64(int(obj) + 0x5BF0)
    if isinstance(obj, int):
        return _splitmix64(obj & _MASK64)
    if isinstance(obj, str):
        return _splitmix64(zlib.crc32(obj.encode("utf-8")))
    if isinstance(obj, bytes):
        return _splitmix64(zlib.crc32(obj))
    if isinstance(obj, tuple):
        acc = 0x243F6A8885A308D3
        for item in obj:
            acc = _splitmix64(acc ^ stable_hash(item))
        return acc
    raise TypeError(f"stable_hash does not support {type(obj).__name__}")


class HashMemo:
    """A bounded memo of :func:`stable_hash`: a key is hashed once,
    however many stores and operations address it afterwards.

    Entries are keyed by the key's marshalled bytes, not by the key:
    ``1``, ``True`` and ``1.0`` are equal as dict keys, yet the first
    two hash differently and the third is rejected.  Keys marshal cannot
    encode (instances of subclasses) are hashed on every call.  A hash
    is a pure function of the key, so no entry goes stale; a full memo
    is emptied.
    """

    __slots__ = ("_hashes",)

    def __init__(self) -> None:
        self._hashes: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._hashes)

    def __call__(self, key: object) -> int:
        try:
            token = _marshal(key, 2)    # version 2: no reference table
        except ValueError:
            return stable_hash(key)
        hashed = self._hashes.get(token)
        if hashed is None:
            hashed = stable_hash(key)
            if len(self._hashes) >= HASH_MEMO_CAP:
                self._hashes.clear()
            self._hashes[token] = hashed
        return hashed


def make_rng(seed: int, *salt: object) -> random.Random:
    """Create an independent RNG stream derived from ``seed`` and ``salt``."""
    return random.Random(stable_hash((seed,) + salt))
