"""Open-loop load generation: the arrival-schedule dispatch mode.

The harness's closed-loop mode keeps ``concurrent_per_engine`` worker
coroutines saturated; this module replaces them with one **dispatcher**
coroutine per home engine that walks a pre-generated arrival schedule
(:func:`~repro.traffic.arrivals.schedule_for_home`), sleeping until
each scheduled instant and then spawning a request task — *without*
waiting for it to finish.  Requests therefore enter at the offered
rate whether or not the system keeps up, which is what exposes the
saturation knee.

Latency accounting is coordinated-omission-safe by construction: every
request settles ``completion − scheduled arrival`` into its tenant's
:class:`~repro.bench.metrics.LatencyHistogram`, so dispatch lag,
admission queueing, scheduler deferrals, and retry backoffs all land in
the percentiles.  Request *content* stays deterministic across backends
because the dispatcher draws every workload request from a per-home RNG
in schedule order, before any concurrency fans out.

This module owns only the schedule walk and the per-tenant settlement.
What a request *does* once it is in is the harness's one request
lifecycle, handed in as ``lifecycle``, so the same cross-transaction
schedulers (:mod:`repro.sched`) mediate execution exactly as in
closed-loop mode; ``admission="deadline"`` additionally puts a
:class:`~repro.sched.DeadlineAdmission` front door ahead of each
engine, shedding unpayable and low-value arrivals before they consume
capacity.
"""

from __future__ import annotations

from typing import Iterable

from .._util import SeededOnDraw, make_rng
from ..sched import DeadlineAdmission, Scheduler
from ..sim import Sleep
from .arrivals import Arrival, ArrivalSpec, schedule_for_home


def spawn_open_loop(workload, config, spec: ArrivalSpec, cluster, stats,
                    homes: Iterable[int], schedulers: dict[int, Scheduler],
                    tracer, lifecycle) -> None:
    """Spawn one open-loop dispatcher per home engine.

    ``config`` is the run's ``RunConfig`` (seed, horizon) and
    ``stats`` its ``OpenLoopStats``; ``schedulers``, ``tracer`` and
    ``lifecycle(home, request, rng, trace, entered_at, label, settle)``
    are the same wiring the closed-loop workers use — open-loop runs
    compose with conflict scheduling and adaptive placement unchanged.
    """
    # tenants registered eagerly so a fully-shed tenant still reports
    # its 0% attainment instead of vanishing from the summary
    for tenant in spec.tenant_mix():
        stats.tenant(tenant.name, spec.deadline_us)
    max_priority = spec.max_priority()
    for home in homes:
        # the divisor is the *global* home count: mp workers each see
        # only their subset, but must split the offered load the same
        # way the single-process run does
        schedule = schedule_for_home(spec, home, config.n_partitions,
                                     config.seed, config.horizon_us)
        admission = None
        if spec.admission == "deadline":
            admission = DeadlineAdmission(schedulers[home].stats,
                                          max_priority=max_priority)
        cluster.engine(home).spawn(
            _dispatcher(workload, config.seed, cluster, stats, schedule,
                        home, admission, tracer, lifecycle))


def _dispatcher(workload, seed: int, cluster, stats,
                schedule: list[Arrival], home: int,
                admission: DeadlineAdmission | None, tracer, lifecycle):
    """Walk the schedule, admitting or shedding each arrival on time."""
    rng = make_rng(seed, "open-loop", home)
    engine = cluster.engine(home)
    for index, arrival in enumerate(schedule):
        tenant = stats.tenant(arrival.tenant, arrival.deadline_us)
        tenant.scheduled += 1
        delay = arrival.at - cluster.sim.now
        if delay > 0:
            yield Sleep(delay)
        # drawn in schedule order on the dispatcher, so the request
        # sequence is deterministic however execution interleaves
        request = workload.next_request(home, rng)
        trace = tracer.new_trace(home) if tracer.enabled else 0
        if admission is not None:
            if admission.admit(arrival, cluster.sim.now) is not None:
                tenant.shed += 1
                if trace:
                    tracer.span(trace, 0, 0, home, "shed", arrival.at,
                                cluster.sim.now, "shed")
                continue
            admission.on_start()
        # not awaited: the next arrival enters on time whether or not
        # this one has finished; only a retry draws from its stream
        engine.spawn(lifecycle(
            home, request, SeededOnDraw(seed, "open-loop-task", home, index),
            trace, arrival.at, arrival.tenant,
            _settlement(tenant, arrival, admission)))


def _settlement(tenant, arrival: Arrival,
                admission: DeadlineAdmission | None):
    """The lifecycle's ``settle`` for one admitted arrival: tenant and
    SLO accounting measured from the *scheduled* arrival."""

    def settle(outcome, now: float) -> None:
        if outcome is None:
            tenant.shed += 1
        else:
            latency_us = now - arrival.at
            tenant.histogram.record(latency_us)
            if not outcome.committed:
                tenant.failed += 1
            else:
                tenant.committed += 1
                if (arrival.deadline_us <= 0
                        or latency_us <= arrival.deadline_us):
                    tenant.in_slo += 1
        if admission is not None:
            admission.on_finish(now)

    return settle
