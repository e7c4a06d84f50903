"""Discrete-event simulation substrate (clock, CPU, network, coroutines).

This package stands in for the paper's physical testbed: an
InfiniBand-connected cluster running coroutine-based execution engines.
The layering inside: :mod:`~repro.sim.effects` defines *what* a
transaction coroutine may yield, :mod:`~repro.sim.runtime` defines *how*
those effects are scheduled (the :class:`EffectRuntime` seam alternate
backends plug into); a cluster holds one runtime per server
(:meth:`Cluster.engine`).  The wall-clock backends are one
runtime + cluster (:mod:`~repro.sim.wallclock`) run in-process (aio) or
per worker process under :mod:`~repro.sim.supervisor` (mp), over the
framed-TCP channel in :mod:`~repro.sim.transport`.
:mod:`~repro.sim.network` states the latency calibration rationale.
"""

from .cluster import Cluster, Server
from .codec import (CodecError, DispatchContext, FrameCodec, OpDescriptor,
                    decode_op, encode_op, op_handler)
from .cpu import Core
from .effects import (All, Await, Compute, Coroutine, Effect, OneWay, Round,
                      Rpc, Signal, Sleep)
from .events import Simulator
from .network import (Network, NetworkStats,
                      approx_payload_bytes, phase_of_kind, write_set_bytes)
from .runtime import EffectRuntime, EffectRuntimeBase
from .supervisor import MpRunError, effective_mp_workers, run_mp_workers
from .transport import MAX_FRAME_BYTES, TcpTransport
from .wallclock import WallClockRuntime, WorkerCluster

__all__ = [
    "All",
    "Await",
    "Cluster",
    "CodecError",
    "Compute",
    "Core",
    "Coroutine",
    "DispatchContext",
    "Effect",
    "EffectRuntime",
    "EffectRuntimeBase",
    "FrameCodec",
    "MAX_FRAME_BYTES",
    "MpRunError",
    "Network",
    "NetworkStats",
    "OneWay",
    "OpDescriptor",
    "Round",
    "Rpc",
    "Server",
    "Signal",
    "Simulator",
    "Sleep",
    "TcpTransport",
    "WallClockRuntime",
    "WorkerCluster",
    "approx_payload_bytes",
    "decode_op",
    "effective_mp_workers",
    "encode_op",
    "op_handler",
    "phase_of_kind",
    "run_mp_workers",
    "write_set_bytes",
]
