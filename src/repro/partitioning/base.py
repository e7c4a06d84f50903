"""Placement schemes: how records map to partitions.

Two building blocks:

* :class:`HashScheme` — stateless hashing of a routing key (a table-aware
  projection of the primary key, so composite-keyed rows can co-locate
  with their parent, e.g. TPC-C rows route by warehouse id).
* :class:`LookupScheme` — an explicit per-record lookup table over a
  fallback scheme.  This is the paper's Section 4.4 structure: Chiller
  stores only *hot* records in the lookup table, while Schism needs an
  entry for every record it places — the source of the ~10x lookup-table
  size difference the evaluation reports.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from .._util import stable_hash

RoutingFn = Callable[[str, Any], Any]
"""Project (table, key) to the value that determines placement."""


def identity_routing(table: str, key: Any) -> Any:
    """Route by the full primary key."""
    return key


def first_component_routing(table: str, key: Any) -> Any:
    """Route composite keys by their first component (co-location)."""
    if isinstance(key, tuple):
        return key[0]
    return key


class HashScheme:
    """Hash partitioning over a routing key.  Zero lookup-table space."""

    def __init__(self, n_partitions: int,
                 routing: RoutingFn = identity_routing):
        if n_partitions <= 0:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.routing = routing

    def partition_of(self, table: str, key: Any) -> int:
        return stable_hash(self.routing(table, key)) % self.n_partitions

    def lookup_table_size(self) -> int:
        return 0


class ModuloScheme:
    """Direct modulo placement for integer routing keys.

    Gives the paper's TPC-C layout: warehouse ``w`` (and everything
    routed by it) lands on partition ``w mod n`` — one warehouse per
    engine, deterministic and alignment-friendly.
    """

    def __init__(self, n_partitions: int,
                 routing: RoutingFn = first_component_routing):
        if n_partitions <= 0:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.routing = routing

    def partition_of(self, table: str, key: Any) -> int:
        routed = self.routing(table, key)
        if not isinstance(routed, int):
            raise TypeError(
                f"ModuloScheme needs integer routing keys, got "
                f"{routed!r} for ({table!r}, {key!r})")
        return routed % self.n_partitions

    def lookup_table_size(self) -> int:
        return 0


class LookupScheme:
    """Explicit per-record placements over a fallback scheme."""

    def __init__(self, entries: Mapping[tuple[str, Any], int],
                 fallback: Any):
        self.entries = dict(entries)
        self.fallback = fallback

    def partition_of(self, table: str, key: Any) -> int:
        placed = self.entries.get((table, key))
        if placed is not None:
            return placed
        return self.fallback.partition_of(table, key)

    def lookup_table_size(self) -> int:
        return len(self.entries) + self.fallback.lookup_table_size()
