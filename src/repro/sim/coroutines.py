"""Per-core execution engines (thin facade over the effect runtime).

The effect vocabulary a transaction yields lives in
:mod:`repro.sim.effects`; the interpretation of those effects — task
scheduling, dispatch, completion plumbing, doorbell batching — lives in
:class:`repro.sim.runtime.EffectRuntime`.  The :class:`Engine` here is
the per-server facade the rest of the system talks to: it wires one
runtime to the network's delivery handler and re-exposes the runtime's
surface under the historical names.  Both are re-exported from
``repro.sim``, so existing imports keep working.
"""

from __future__ import annotations

from typing import Any, Callable

from .cpu import Core
from .effects import (All, Await, BatchedOneSided, Compute,  # noqa: F401
                      Coroutine, Effect, OneSided, OneWay, Rpc, Signal,
                      Sleep)
from .events import Simulator
from .network import Network
from .runtime import EffectRuntime


class Engine:
    """A per-core transaction execution engine.

    The engine drives coroutines to completion, multiplexing them over
    one simulated :class:`~repro.sim.cpu.Core`.  All actual effect
    interpretation is delegated to the engine's
    :class:`~repro.sim.runtime.EffectRuntime`; swapping the runtime
    swaps the execution backend without changing any caller.
    """

    def __init__(self, sim: Simulator, network: Network, server_id: int,
                 runtime: EffectRuntime | None = None):
        self.sim = sim
        self.network = network
        self.server_id = server_id
        self.runtime = runtime or EffectRuntime(sim, network, server_id)
        network.register_handler(server_id, self.runtime.on_message)

    @property
    def core(self) -> Core:
        return self.runtime.core

    @property
    def active_tasks(self) -> int:
        return self.runtime.active_tasks

    def set_rpc_handler(self,
                        handler: Callable[[int, Any], Coroutine]) -> None:
        """Install the coroutine factory used to serve incoming RPCs.

        ``handler(src, request)`` must return a coroutine whose return
        value is the RPC reply.
        """
        self.runtime.rpc_handler = handler

    def spawn(self, gen: Coroutine,
              on_done: Callable[[Any], None] | None = None) -> None:
        """Start driving a coroutine; ``on_done`` receives its return."""
        self.runtime.spawn(gen, on_done)

    def post(self, target: int, payload: Any,
             nbytes: int | None = None) -> None:
        """Fire-and-forget message to ``target`` (no reply awaited)."""
        self.runtime.post(target, payload, nbytes)
