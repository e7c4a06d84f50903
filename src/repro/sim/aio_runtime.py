"""Wall-clock stand-ins for the simulator's clock and network.

A :class:`~repro.sim.wallclock.WorkerCluster` presents the same
``sim.now`` / ``network.config`` / ``network.stats`` surface as the
simulated :class:`~repro.sim.cluster.Cluster`; these two shims are what
it puts there.  What the backends guarantee:

========================  =======================  ======================
property                  sim backend              aio / mp backends
========================  =======================  ======================
clock                     simulated microseconds   wall-clock microseconds
latency                   NetworkConfig constants  whatever the loop/stack
                                                   actually costs
(src, dst) FIFO           `_fifo_time` monotonic   loop callback order /
                                                   one stream per worker
                                                   pair
one-sided target CPU      none (NIC model)         target's loop turn
determinism               bit-exact per seed       scheduling-dependent
========================  =======================  ======================
"""

from __future__ import annotations

import time

from .network import NetworkConfig, NetworkStats


class AioClock:
    """Wall-clock microseconds since the cluster started running.

    Presents the slice of :class:`~repro.sim.events.Simulator` the
    database and harness layers read (``now``, ``events_fired``).
    """

    def __init__(self) -> None:
        self._t0: float | None = None
        self.events_fired = 0

    def start(self, offset_us: float = 0.0) -> None:
        """(Re)zero the clock.  Called at every run start, so a reused
        cluster admits a full horizon again instead of inheriting the
        wall time that passed since the previous run.  ``offset_us``
        starts the clock mid-run: a restarted mp worker resumes at the
        fleet's elapsed time instead of re-admitting a full horizon."""
        self._t0 = time.perf_counter() - offset_us / 1e6

    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return (time.perf_counter() - self._t0) * 1e6


class AioNetwork:
    """Traffic model + accounting shared by every server's runtime.

    Holds the :class:`~repro.sim.network.NetworkConfig` knobs the
    executors read (doorbell batching, payload accounting) and the
    :class:`~repro.sim.network.NetworkStats` wire/local counters, kept
    to the same semantics as the simulated network so backend
    comparisons read one schema.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self.stats = NetworkStats()
