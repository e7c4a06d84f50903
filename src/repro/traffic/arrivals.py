"""Seeded open-loop arrival processes.

A closed-loop benchmark (N workers, each issuing its next request the
moment the previous one finishes) can never show a saturation knee:
when the system slows down, the load generator politely slows down
with it — the classic *coordinated omission* trap.  This module
generates **arrival schedules**: per-engine lists of timestamps at
which requests enter the system *regardless of completion*.  The
harness's open-loop mode (:mod:`repro.traffic.openloop`) dispatches a
request at each scheduled instant and measures its latency from that
instant, so queueing delay under overload is charged to the system,
not silently absorbed by the generator.

Schedules are a pure function of ``(spec, home, n_homes, seed,
horizon_us)`` — they touch no clock and no global state — so the same
run configuration produces bit-identical arrivals on the simulator, the
asyncio backend, and every multiprocess worker (each worker generates
the schedules for the homes it owns).

Processes:

* ``poisson`` — memoryless arrivals at a constant mean rate.
* ``diurnal`` — a sinusoidal day/night curve; ``offered_load`` is the
  *peak* rate, the trough sits at :data:`DIURNAL_TROUGH` of it.
* ``flash`` — a flash-crowd step: quiet at ``offered_load /``
  :data:`FLASH_RATIO` until :data:`FLASH_AT_FRAC` of the horizon, then
  the full rate hits at once.
* ``tenants`` — a multi-tenant mix: independent Poisson streams per
  tenant of :data:`DEFAULT_TENANT_MIX`, with per-tenant shares and
  priorities, merged into one schedule.

Non-constant rates use Lewis–Shedler thinning: candidates are drawn
from a homogeneous process at the peak rate and accepted with
probability ``rate(t) / peak``, which keeps the schedule exact for any
bounded rate curve while staying a deterministic function of the RNG
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .._util import make_rng

ARRIVAL_PROCESSES = ("poisson", "diurnal", "flash", "tenants")
"""Arrival processes a run can select (``RunConfig.arrivals``)."""

ADMISSIONS = ("none", "deadline")
"""Open-loop admission policies: admit every arrival, or shed by
deadline and priority (see :class:`repro.sched.DeadlineAdmission`)."""


DIURNAL_PERIOD_US = 20_000.0
"""One day of the ``diurnal`` curve, in the backend's microseconds."""

DIURNAL_TROUGH = 0.25
"""Trough rate of the ``diurnal`` curve as a fraction of the peak."""

FLASH_AT_FRAC = 0.5
"""Where in the horizon the ``flash`` step hits (fraction)."""

FLASH_RATIO = 4.0
"""Peak-to-quiet rate ratio of the ``flash`` step."""


class TenantSpec(NamedTuple):
    """One traffic class inside a multi-tenant mix.

    Tenants are *traffic* classes, not data classes: they share the
    workload's key space and differ only in rate share and value
    (priority); every tenant has the spec's SLO deadline.
    """

    name: str
    share: float = 1.0
    """Relative slice of the aggregate offered load (normalized over
    all tenants, so shares need not sum to 1)."""

    priority: float = 1.0
    """Value of this tenant's work; under overload the deadline-aware
    admission controller sheds lower-priority tenants first."""


DEFAULT_TENANT_MIX = (TenantSpec("gold", share=0.2, priority=4.0),
                      TenantSpec("standard", share=0.8, priority=1.0))
"""The mix of the ``tenants`` process: a small high-value slice over a
bulk tier."""


class Arrival(NamedTuple):
    """One scheduled request: when it enters, and on whose behalf."""

    at: float
    """Scheduled entry time in backend microseconds (simulated µs on
    sim, wall-clock µs on aio/mp)."""

    tenant: str
    deadline_us: float
    priority: float


@dataclass(frozen=True)
class ArrivalSpec:
    """Picklable recipe for one run's open-loop traffic.

    This is what ``RunConfig.arrivals`` holds; it crosses into mp
    worker processes inside the config, and each process regenerates
    its homes' schedules locally (schedules are deterministic, so
    nothing needs to ship).
    """

    process: str = "poisson"
    offered_load: float = 20_000.0
    """Aggregate arrival rate in txns/sec across all load-generating
    homes (the peak rate for ``diurnal``/``flash``)."""

    deadline_us: float = 4_000.0
    """Default SLO deadline from scheduled arrival to commit."""

    admission: str = "none"
    """``"none"`` admits every arrival (the honest overload baseline);
    ``"deadline"`` sheds arrivals whose predicted wait exceeds their
    deadline budget, lowest-priority first."""

    def __post_init__(self) -> None:
        # a NaN or infinite rate would never reach the horizon
        if not 0.0 < self.offered_load < math.inf:
            raise ValueError(f"offered_load must be a finite positive "
                             f"rate, not {self.offered_load!r}")

    def tenant_mix(self) -> tuple[TenantSpec, ...]:
        """:data:`DEFAULT_TENANT_MIX` for the ``tenants`` process, one
        anonymous tenant for the others."""
        if self.process == "tenants":
            return DEFAULT_TENANT_MIX
        return (TenantSpec("all"),)

    def max_priority(self) -> float:
        return max(t.priority for t in self.tenant_mix())


def as_arrival_spec(value: "ArrivalSpec | str | None",
                    ) -> ArrivalSpec | None:
    """Normalize ``RunConfig.arrivals`` (None, a process name, or a
    full spec).  None means closed-loop — the historical behavior."""
    if value is None:
        return None
    if isinstance(value, str):
        if value not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {value!r} "
                             f"(expected one of {ARRIVAL_PROCESSES})")
        return ArrivalSpec(process=value)
    if value.process not in ARRIVAL_PROCESSES:
        raise ValueError(f"unknown arrival process {value.process!r} "
                         f"(expected one of {ARRIVAL_PROCESSES})")
    if value.admission not in ADMISSIONS:
        raise ValueError(f"unknown admission policy {value.admission!r} "
                         f"(expected one of {ADMISSIONS})")
    return value


def _rate_curve(spec: ArrivalSpec,
                horizon_us: float) -> Callable[[float], float]:
    """Relative rate ``r(t) in (0, 1]`` against the peak offered load."""
    if spec.process == "diurnal":
        def diurnal(t: float) -> float:
            phase = 0.5 * (1.0 + math.sin(
                2.0 * math.pi * t / DIURNAL_PERIOD_US))
            return DIURNAL_TROUGH + (1.0 - DIURNAL_TROUGH) * phase

        return diurnal
    if spec.process == "flash":
        step_at = FLASH_AT_FRAC * horizon_us
        quiet = 1.0 / FLASH_RATIO
        return lambda t: 1.0 if t >= step_at else quiet
    return lambda t: 1.0


def schedule_for_home(spec: ArrivalSpec, home: int, n_homes: int,
                      seed: int, horizon_us: float) -> list[Arrival]:
    """This home's arrival schedule, sorted by entry time.

    Deterministic in ``(spec, home, n_homes, seed, horizon_us)`` and
    nothing else: each ``(home, tenant)`` stream draws from its own
    :func:`~repro._util.make_rng` stream, so schedules are identical
    across backends and across mp worker topologies (a worker owning
    homes {1, 3} generates exactly the schedules the single-process
    run generates for those homes).
    """
    if n_homes <= 0:
        raise ValueError("schedule needs at least one home")
    rate = _rate_curve(spec, horizon_us)
    tenants = spec.tenant_mix()
    total_share = sum(t.share for t in tenants)
    arrivals: list[Arrival] = []
    for tenant in tenants:
        peak_per_us = (spec.offered_load * tenant.share
                       / total_share / n_homes / 1e6)
        rng = make_rng(seed, "arrivals", spec.process, home, tenant.name)
        t = 0.0
        while True:
            t += rng.expovariate(peak_per_us)
            if t >= horizon_us:
                break
            # Lewis-Shedler thinning against the peak rate
            if rng.random() < rate(t):
                arrivals.append(Arrival(t, tenant.name, spec.deadline_us,
                                        tenant.priority))
    arrivals.sort(key=lambda a: (a.at, a.tenant))
    return arrivals
