"""Small shared utilities: deterministic hashing and seeded RNG helpers.

Python's built-in ``hash`` is randomized per process for strings, which
would make partition placement non-deterministic across runs.  Everything
in this package that needs a hash of a key uses :func:`stable_hash`.
"""

from __future__ import annotations

import random
import zlib

_MASK64 = (1 << 64) - 1


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


def make_rng(seed: int, *salt: object) -> random.Random:
    """Create an independent RNG stream derived from ``seed`` and ``salt``."""
    return random.Random(stable_hash((seed,) + salt))
