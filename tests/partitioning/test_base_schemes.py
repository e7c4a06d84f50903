"""Tests for hash/lookup placement schemes."""

import pytest
from hypothesis import given, strategies as st

from repro.partitioning import (HashScheme, LookupScheme,
                                first_component_routing)


def test_hash_scheme_deterministic_and_in_range():
    scheme = HashScheme(4)
    for key in range(100):
        pid = scheme.partition_of("t", key)
        assert 0 <= pid < 4
        assert pid == scheme.partition_of("t", key)


def test_hash_scheme_spreads_keys():
    scheme = HashScheme(4)
    parts = {scheme.partition_of("t", k) for k in range(200)}
    assert parts == {0, 1, 2, 3}


def test_hash_scheme_zero_lookup_size():
    assert HashScheme(4).lookup_table_size() == 0


def test_hash_invalid_partitions():
    with pytest.raises(ValueError):
        HashScheme(0)


def test_first_component_routing_colocates_children():
    scheme = HashScheme(8, routing=first_component_routing)
    parent = scheme.partition_of("orders", (3,))
    for line in range(10):
        assert scheme.partition_of("order_line", (3, line)) == parent


def test_lookup_scheme_overrides_fallback():
    fallback = HashScheme(4)
    scheme = LookupScheme({("t", 1): 3}, fallback)
    assert scheme.partition_of("t", 1) == 3
    assert scheme.partition_of("t", 2) == fallback.partition_of("t", 2)
    assert scheme.lookup_table_size() == 1


@given(st.integers(1, 16), st.lists(st.integers(0, 10_000), max_size=50))
def test_hash_scheme_total_function(k, keys):
    scheme = HashScheme(k)
    for key in keys:
        assert 0 <= scheme.partition_of("t", key) < k
