"""Integration tests for the open-loop dispatch mode.

Sim-backend runs through the real harness: arrival accounting must
balance, latency must be measured from the *scheduled* arrival
(coordinated-omission-safe — under overload the open-loop percentiles
dwarf the per-attempt ones), and deadline admission must shed by
value.  One cell drives the asyncio backend to prove the schedule
dispatches on a wall clock through the same code path.
"""

import pickle

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_ycsb_run
from repro.traffic import ArrivalSpec, schedule_for_home


def run_open_loop(offered_load=50_000.0, process="poisson",
                  admission="none", horizon_us=10_000.0,
                  n_partitions=2, backend="sim", **overrides):
    config = RunConfig(n_partitions=n_partitions, horizon_us=horizon_us,
                       warmup_us=1_000.0, seed=7, backend=backend,
                       arrivals=ArrivalSpec(process=process,
                                            offered_load=offered_load,
                                            deadline_us=2_000.0,
                                            admission=admission),
                       **overrides)
    return make_ycsb_run("2pl", config).run()


def test_open_loop_accounting_balances():
    result = run_open_loop()
    stats = result.metrics.open_loop
    assert stats is not None
    expected = sum(
        len(schedule_for_home(result.config.arrival_spec(), home, 2,
                              7, 10_000.0))
        for home in range(2))
    assert stats.scheduled == expected
    tenant = stats.tenants["all"]
    # the run drains to quiescence: every scheduled arrival was either
    # shed or ran to a terminal outcome, and each finished request
    # recorded exactly one latency sample
    assert tenant.scheduled == (tenant.shed + tenant.committed
                                + tenant.failed)
    assert tenant.histogram.n == tenant.committed + tenant.failed
    assert tenant.committed > 0


def test_perf_summary_reports_open_loop_only_when_enabled():
    open_loop = run_open_loop()
    summary = open_loop.perf_summary()["open_loop"]
    assert summary["scheduled"] > 0
    assert "p99_us" in summary["latency"]
    assert "all" in summary["tenants"]

    closed = make_ycsb_run("2pl", RunConfig(
        n_partitions=2, horizon_us=5_000.0, warmup_us=500.0,
        seed=7)).run()
    assert closed.metrics.open_loop is None
    assert "open_loop" not in closed.perf_summary()


def test_latency_measured_from_scheduled_arrival():
    # 2 engines sustain ~400k/s on this cell; offer 2x that.  The
    # per-attempt view (dispatch to outcome) cannot see time spent
    # queued behind the backlog; the open-loop view charges it, so
    # under overload the open-loop *median* must dwarf both the
    # per-attempt median and the entire unloaded tail.
    overload = run_open_loop(offered_load=800_000.0)
    open_loop_p50 = overload.metrics.open_loop.overall().percentile(0.50)
    per_attempt_p50 = overload.metrics.percentile_latency(0.50)
    assert open_loop_p50 > 3.0 * per_attempt_p50, (
        f"open-loop median {open_loop_p50:.0f}us should dwarf the "
        f"per-attempt median {per_attempt_p50:.0f}us under overload")

    unloaded = run_open_loop(offered_load=50_000.0)
    unloaded_p99 = unloaded.metrics.open_loop.overall().percentile(0.99)
    assert open_loop_p50 > 100.0 * unloaded_p99, (
        "queueing delay must dominate: a coordinated-omission-unsafe "
        "recorder would report near-service-time latencies here")

    # below the knee (half this cell's capacity) the tail stays near
    # the service time: nothing queues, so nothing is charged
    half = run_open_loop(offered_load=200_000.0)
    half_p99 = half.metrics.open_loop.overall().percentile(0.99)
    assert half_p99 <= 2.0 * unloaded_p99, (
        f"below the knee p99 must stay near the unloaded p99: "
        f"{half_p99:.0f}us vs {unloaded_p99:.0f}us")


def test_deadline_admission_sheds_low_priority_first():
    result = run_open_loop(offered_load=800_000.0, process="tenants",
                           admission="deadline")
    tenants = result.metrics.open_loop.tenants
    assert tenants["standard"].shed > tenants["gold"].shed
    # ...which is what holds the gold SLO at 2x capacity
    assert tenants["gold"].attainment() >= 0.9
    sheds = result.metrics.scheduler_summary().summary()["tenant_sheds"]
    reasons = {reason for per_tenant in sheds.values()
               for reason in per_tenant}
    assert reasons <= {"queue_full", "deadline_hopeless",
                       "priority_shed"}
    assert "standard" in sheds


def test_unadmitted_overload_drowns_all_tenants():
    result = run_open_loop(offered_load=800_000.0, process="tenants",
                           admission="none")
    stats = result.metrics.open_loop
    assert stats.shed == 0
    for tenant in stats.tenants.values():
        assert tenant.attainment() < 0.9


def test_offered_load_and_deadline_overrides():
    config = RunConfig(arrivals="poisson", offered_load=123_456.0,
                       deadline_us=777.0)
    spec = config.arrival_spec()
    assert spec.offered_load == 123_456.0
    assert spec.deadline_us == 777.0
    assert RunConfig().arrival_spec() is None


def test_open_loop_rejects_route_by_data():
    with pytest.raises(ValueError, match="route_by_data"):
        run_open_loop(route_by_data=True)


def test_config_with_arrivals_pickles():
    config = RunConfig(arrivals=ArrivalSpec(process="tenants",
                                            admission="deadline"))
    clone = pickle.loads(pickle.dumps(config))
    assert clone.arrival_spec() == config.arrival_spec()


def test_open_loop_dispatches_on_wall_clock_aio():
    result = run_open_loop(offered_load=2_000.0, horizon_us=25_000.0,
                           backend="aio")
    stats = result.metrics.open_loop
    assert stats is not None and stats.scheduled > 0
    tenant = stats.tenants["all"]
    assert tenant.committed > 0
    # wall-clock run: the dispatcher slept until each arrival, so the
    # wall time that passed covers the last one (the run ends when the
    # last request completes, which may be before the horizon)
    last_arrival = max(
        arrival.at for home in range(2)
        for arrival in schedule_for_home(result.config.arrival_spec(), home,
                                         2, 7, 25_000.0))
    assert result.end_time >= last_arrival
