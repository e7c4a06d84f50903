"""Watchdog chaos: SIGKILL an mp worker under a live timeline.

The acceptance cell for the observability layer's hardest claim: the
merged timeline *survives* worker death (already-shipped intervals are
kept, the dead generation's unsent partial is absent, nothing is
double-counted), and the health watchdog turns the kill into typed
events — a ``stall`` (the victim's server goes silent) and a
``leader_flap`` (the victim held the placement lease; a survivor
acquires it) — within the rule window.

The flap needs the victim to lead when it dies and the survivor to win
the cell its replacement recreates.  Neither is left to a start-up
race: the cell's first host bids first and everyone else (the survivor
at start, the replacement after the respawn) sits out one lease TTL,
which the run sets to 200 ms, far above the few ms by which two
workers' starts differ.

Real processes, real SIGKILL, reusing the chaos harness of
``tests/sim/test_mp_recovery.py``.
"""

import multiprocessing

import pytest

from repro.bench import RunConfig
from repro.bench.setups import make_ycsb_run
from repro.placement import PlacementSpec, migration
from repro.workloads.ycsb import YcsbWorkload

INTERVAL_US = 100_000.0  # 100ms wall per sample on the mp backend
VICTIM = 0               # worker 0 owns server 0 = the lease home


def no_leaked_workers() -> bool:
    return not [p for p in multiprocessing.active_children()
                if p.name.startswith("mp-worker-")]


def chaos_config(tmp_path) -> RunConfig:
    return RunConfig(
        n_partitions=2, concurrent_per_engine=2,
        horizon_us=3_000_000.0, warmup_us=0.0, n_replicas=1,
        backend="mp", wal="group", wal_dir=str(tmp_path), mp_recovery=True,
        mp_chaos_kill_worker=VICTIM, mp_chaos_kill_after_s=1.2,
        placement=PlacementSpec(kind="adaptive"),
        metrics_interval=INTERVAL_US)


@pytest.fixture(scope="module")
def chaos_result(tmp_path_factory):
    """One chaos run shared by every assertion below (a real SIGKILL +
    respawn costs seconds; the properties are all facets of the same
    merged timeline)."""
    tmp_path = tmp_path_factory.mktemp("watchdog-chaos")
    config = chaos_config(tmp_path)
    run = make_ycsb_run("2pl", config,
                        workload=YcsbWorkload(n_keys=512))
    with pytest.MonkeyPatch.context() as patch:
        # forked workers (the respawn too) see the parent's value
        patch.setattr(migration, "LEASE_TTL_US", 200_000.0)
        result = run.run()
    assert no_leaked_workers()
    return result


def test_run_survives_the_kill(chaos_result):
    assert chaos_result.metrics.commits > 0
    recovery = chaos_result.metrics.recovery_stats
    assert recovery is not None and recovery.recoveries == 1


def test_stall_and_leader_flap_are_detected(chaos_result):
    events = chaos_result.perf_summary()["health"]
    kinds = {event["kind"] for event in events}
    assert "stall" in kinds, events
    assert "leader_flap" in kinds, events
    # the victim's server went silent; detection is typed and
    # attributed, not a generic "run was slow".  (The survivor may
    # *also* stall legitimately — its distributed transactions block
    # on the dead peer — so filter by server.)
    victim_stalls = [e for e in events
                     if e["kind"] == "stall" and e["server"] == VICTIM]
    assert victim_stalls, events
    assert any("silent" in e["message"] for e in victim_stalls)
    flap = next(e for e in events if e["kind"] == "leader_flap")
    assert flap["server"] == -1  # cluster-scoped
    assert flap["value"] >= 1


def test_merged_timeline_spans_both_generations(chaos_result):
    timeline = chaos_result.metrics.timeline
    assert timeline is not None
    assert timeline.servers() == [0, 1]
    gens = {row.gen for row in timeline.rows(VICTIM)}
    # the dead generation's shipped rows survive alongside the
    # replacement's
    assert gens == {0, 1}, gens
    assert timeline.dropped == 0


def test_merged_timeline_is_monotonic(chaos_result):
    timeline = chaos_result.metrics.timeline
    # nonnegative deltas are what makes every running total monotonic
    for server in timeline.servers():
        for row in timeline.rows(server):
            assert all(v >= 0 for v in row.counters.values()), \
                f"negative delta on server {server}: {row.counters}"


def test_no_double_counted_deltas(chaos_result):
    timeline = chaos_result.metrics.timeline
    metrics = chaos_result.metrics
    # the survivor ran one generation: its timeline total must land
    # exactly on its final scheduler stats
    survivor = 1
    completed = sum(r.counters.get("completed", 0)
                    for r in timeline.rows(survivor))
    assert completed == metrics.scheduler_stats[survivor].completed
    # the victim's final stats come from the replacement generation
    # only; its gen-1 rows must land exactly there, with the dead
    # generation's shipped rows strictly additive on top
    gen1 = sum(r.counters.get("completed", 0)
               for r in timeline.rows(VICTIM) if r.gen == 1)
    assert gen1 == metrics.scheduler_stats[VICTIM].completed
    # dead-generation work was shipped live and kept, so the timeline
    # legitimately knows about *more* commits than the final payloads
    # (which lost the dead worker's) — never fewer
    assert timeline.totals().get("commits", 0) >= metrics.commits
