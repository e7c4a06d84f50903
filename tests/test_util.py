"""Property tests for deterministic hashing and RNG derivation."""

import random

from hypothesis import given, strategies as st

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
    import pytest
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
