"""Wire-level types shared by the replication protocols.

A replicated write is the ``(kind, table, key, values)`` tuple its
coordinator evaluated and applied (:mod:`repro.txn.common`).  Messages
are ``NamedTuple``s: cheap to build, and sized by the payload walk as
the tuples they are.
"""

from __future__ import annotations

from typing import NamedTuple


class InnerReplicate(NamedTuple):
    """Inner host -> replica: apply this inner-region write-set, then
    acknowledge directly to the *coordinator* (paper Fig. 6)."""

    txn_id: int
    partition: int
    writes: tuple
    """The inner region's ``(kind, table, key, values)`` writes."""
    coordinator: int


class InnerReplicaAck(NamedTuple):
    """Replica -> coordinator: inner-region writes are durable here."""

    txn_id: int
    replica_server: int
