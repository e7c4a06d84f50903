"""Cluster wiring: N servers, each a (storage slot, effect runtime) pair.

The simulation layer stays ignorant of the database layer: ``storage`` is
an opaque slot that `repro.txn` / `repro.core` fill with a
:class:`~repro.storage.partition.Partition` (and replicas).
"""

from __future__ import annotations

from typing import Any

from .events import Simulator
from .network import Network
from .runtime import EffectRuntime, EffectRuntimeBase


class Server:
    """One machine: its execution engine (the effect runtime that
    drives its coroutines) plus whatever storage it hosts."""

    def __init__(self, server_id: int, engine: EffectRuntimeBase):
        self.id = server_id
        self.engine = engine
        self.storage: Any = None

    def __repr__(self) -> str:
        return f"Server({self.id})"


class Cluster:
    """A set of servers sharing one simulator and one network."""

    def __init__(self, n_servers: int, doorbell_batching: bool = False,
                 sim: Simulator | None = None):
        if n_servers <= 0:
            raise ValueError("cluster needs at least one server")
        self.sim = sim or Simulator()
        self.network = Network(self.sim, doorbell_batching)
        self.servers = [Server(i, EffectRuntime(self.sim, self.network, i))
                        for i in range(n_servers)]
        self.metrics_sampler = None
        """The run's timeline sampler when the live metrics timeline is
        on: set by the bench driver, ticked from ``sim.probe``."""

    def __len__(self) -> int:
        return len(self.servers)

    def server(self, server_id: int) -> Server:
        return self.servers[server_id]

    def engine(self, server_id: int) -> EffectRuntime:
        return self.servers[server_id].engine

    def run(self) -> None:
        """Drive the simulation until quiescence."""
        self.sim.run()
