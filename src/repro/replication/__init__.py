"""Replication: replica placement/state and the Fig. 6 inner protocol."""

from .common_types import InnerReplicaAck, InnerReplicate
from .replica import ReplicaManager

__all__ = [
    "InnerReplicaAck",
    "InnerReplicate",
    "ReplicaManager",
]
