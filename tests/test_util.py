"""Property tests for deterministic hashing and RNG derivation."""

import random
import zlib

import pytest
from hypothesis import given, strategies as st

import repro._util as util
from repro._util import make_rng, stable_hash

key_values = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.text(max_size=30),
    st.booleans(),
    st.binary(max_size=30),
)
keys = st.one_of(key_values,
                 st.tuples(key_values, key_values),
                 st.tuples(key_values, key_values, key_values))


@given(keys)
def test_stable_hash_is_deterministic(key):
    assert stable_hash(key) == stable_hash(key)


@given(keys)
def test_stable_hash_is_64_bit(key):
    assert 0 <= stable_hash(key) < 2**64


@given(st.integers(0, 10_000))
def test_int_and_single_tuple_differ(n):
    """(n,) must not collide with n by construction accident."""
    assert stable_hash(n) != stable_hash((n,))


def test_distribution_over_buckets():
    counts = [0] * 8
    for i in range(8000):
        counts[stable_hash(i) % 8] += 1
    assert min(counts) > 800  # roughly uniform


def test_string_hash_does_not_depend_on_process_salt():
    # fixed expectation guards against accidentally using built-in hash
    assert stable_hash("banana") == stable_hash("banana")
    a, b = stable_hash("banana"), stable_hash("bananb")
    assert a != b


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        stable_hash(3.14)


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_make_rng_streams_independent(seed, salt):
    r1 = make_rng(seed, "a", salt)
    r2 = make_rng(seed, "b", salt)
    assert isinstance(r1, random.Random)
    # same seed different salt should (almost surely) diverge
    if salt != seed:
        assert [r1.random() for _ in range(3)] != [
            r2.random() for _ in range(3)]


def test_make_rng_reproducible():
    assert make_rng(7, "x").random() == make_rng(7, "x").random()


# -- the mixer memo is exact ---------------------------------------------------

_M64 = (1 << 64) - 1


def _round(x):
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def reference_hash(obj):
    """``stable_hash`` as it was before the memo: every round computed."""
    if isinstance(obj, bool):
        return _round(int(obj) + 0x5BF0)
    if isinstance(obj, int):
        return _round(obj & _M64)
    if isinstance(obj, str):
        return _round(zlib.crc32(obj.encode("utf-8")))
    if isinstance(obj, bytes):
        return _round(zlib.crc32(obj))
    if isinstance(obj, tuple):
        acc = 0x243F6A8885A308D3
        for item in obj:
            acc = _round(acc ^ reference_hash(item))
        return acc
    raise TypeError(type(obj).__name__)


memo_scalars = st.one_of(
    st.integers(-2**70, -1),            # negative: masked before the round
    st.integers(2**64, 2**70),          # past 64 bits: masked too
    st.integers(0, 50),                 # small: what keys repeat
    st.booleans(),
    st.text(max_size=8),
    st.binary(max_size=8),
)
memo_keys = st.recursive(memo_scalars,
                         lambda inner: st.lists(inner, max_size=4).map(tuple),
                         max_leaves=12)


@given(st.lists(memo_keys, min_size=1, max_size=20))
def test_memoised_hash_equals_the_unmemoised_one(keys):
    # twice over: the second pass reads what the first one memoised
    for key in keys + keys:
        assert stable_hash(key) == reference_hash(key)


@pytest.mark.parametrize("a, b", [(True, 1), (False, 0), ((True,), (1,)),
                                  ((0, False), (0, 0)), ((1, (True,)),
                                                         (1, (1,)))])
def test_bools_and_ints_stay_apart_whichever_is_memoised_first(a, b):
    for first, second in ((a, b), (b, a)):
        util._mixed.clear()
        assert stable_hash(first) == reference_hash(first)
        assert stable_hash(second) == reference_hash(second)
        assert stable_hash(first) != stable_hash(second)


@given(st.lists(memo_keys, min_size=1, max_size=40))
def test_a_full_memo_is_emptied_and_stays_exact(keys):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util, "MIX_MEMO_CAP", 8)
        patch.setattr(util, "_mixed", {})
        for key in keys + keys:
            assert stable_hash(key) == reference_hash(key)
            assert len(util._mixed) <= 8


def test_the_memo_crosses_a_clear_and_never_outgrows_its_cap(monkeypatch):
    monkeypatch.setattr(util, "MIX_MEMO_CAP", 64)
    monkeypatch.setattr(util, "_mixed", {})
    keys = [(w, d, o) for w in range(4) for d in range(10) for o in range(5)]
    sizes = []
    for key in keys + keys:
        assert stable_hash(key) == reference_hash(key)
        sizes.append(len(util._mixed))
    assert max(sizes) <= 64
    # the memo filled and was emptied more than once on the way
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2
