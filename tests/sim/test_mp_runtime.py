"""Multiprocess backend: conformance, benchmark path, and teardown.

These tests fork real worker processes.  Each run is built once, here,
and every worker serves its inherited copy; the drivers live at module
level for legibility only: a forked child inherits them, nothing is
pickled on the way in.
"""

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import time
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

from repro.bench import RunConfig, experiments, make_cluster, run_benchmark
from repro.bench.experiments import TPCC_EXECUTORS
from repro.bench.conformance import (DRIVER_HOME, build_conformance_run,
                                     conformance_config,
                                     conformance_requests, decision_program,
                                     run_conformance)
from repro.bench.setups import make_tpcc_run
from repro.obs import MetricsHttpServer
from repro.obs.export import critical_path, trace_tree
from repro.sched import conflict
from repro.sim import (All, Await, BatchedOneSided, MpRunError, NetworkStats,
                       OneSided, Rpc, Signal, Sleep, TcpTransport,
                       WorkerCluster, run_mp_workers)
from repro.sim.codec import OpDescriptor, WireOneWay, WireVerbs
from repro.sim.transport import bind_listener
from repro.txn.common import seed_txn_ids


def no_leaked_workers() -> bool:
    return not [p for p in multiprocessing.active_children()
                if p.name.startswith("mp-worker-")]


def mp_config(**overrides) -> RunConfig:
    defaults = dict(n_partitions=2, concurrent_per_engine=2,
                    horizon_us=15_000.0, warmup_us=0.0, n_replicas=1,
                    backend="mp", run_timeout_s=120.0)
    defaults.update(overrides)
    return RunConfig(**defaults)


# -- parent-side wiring ------------------------------------------------------


def test_make_cluster_mp_returns_inert_template():
    """The parent's cluster is the image every worker forks from:
    unbound, it owns no server and drives nothing itself."""
    cluster = make_cluster(mp_config())
    assert isinstance(cluster, WorkerCluster)
    assert (cluster.worker_id, cluster.n_workers) == (None, 2)
    assert cluster.owned_servers() == []
    with pytest.raises(RuntimeError, match="worker processes"):
        cluster.run()
    with pytest.raises(RuntimeError, match="drives nothing"):
        cluster.engine(0).spawn(iter(()))


def test_an_mp_run_forks_from_an_unbound_cluster():
    run = build_conformance_run(conformance_config("aio"))
    with pytest.raises(ValueError, match="unbound cluster"):
        run_benchmark(run.workload, run.executor,
                      dataclasses.replace(run.config, backend="mp"))
    assert no_leaked_workers()


def run_fleet(driver, config, **hooks) -> list:
    """Build the conformance run here and fork its fleet over it."""
    run = build_conformance_run(config)
    return run_mp_workers(run.database.cluster, partial(driver, run),
                          config, **hooks)


def test_mp_workers_knob_bounds():
    from repro.sim import effective_mp_workers
    assert effective_mp_workers(mp_config()) == 2
    assert effective_mp_workers(mp_config(mp_workers=1)) == 1
    assert effective_mp_workers(mp_config(mp_workers=9)) == 2  # capped
    with pytest.raises(ValueError):
        effective_mp_workers(mp_config(mp_workers=0))


# -- cross-backend conformance -----------------------------------------------


@pytest.mark.parametrize("executor", ["2pl", "occ"])
def test_identical_decisions_on_sim_aio_and_mp(executor):
    """The shared effect program must commit/abort identically — same
    decisions, same abort reasons, same order — on every backend."""
    sim = run_conformance("sim", executor)
    assert any(committed for _p, committed, _r in sim)
    assert ("transfer", False, "logical") in sim
    assert ("transfer", False, "read_miss") in sim
    assert run_conformance("aio", executor) == sim
    assert run_conformance("mp", executor) == sim
    assert no_leaked_workers()


# -- degenerate topologies ------------------------------------------------------
#
# aio *is* the mp runtime with one worker that owns every server.  The
# same program must therefore give the same results, decisions and
# local/wire accounting in-process, on one worker process, and on two —
# only the bytes may differ (nominal sizes in-process, real frame sizes
# across workers).

TOPOLOGIES = [("aio", None), ("mp", 1), ("mp", 2)]
SPLIT = ("one_sided_local", "one_sided_remote", "one_sided_batches",
         "one_sided_batched_verbs", "messages_local", "messages")


def build_topology_run(config, executor="2pl"):
    """The conformance database plus two RPC kinds on every server:
    ``echo`` (by-value reply) and ``finish`` (fires ``run.finished``)."""
    run = build_conformance_run(config, executor)
    run.finished = Signal()

    def echo(server_id, src, body):
        return (server_id, src, body)
        yield  # pragma: no cover - generator marker

    def finish(server_id, src, body):
        if not run.finished.fired:
            run.finished.fire(None)
        return None
        yield  # pragma: no cover - generator marker

    run.database.register_rpc("echo", echo)
    run.database.register_rpc("finish", finish)
    return run


def effect_program(run, out):
    """Every message-moving effect, against both servers, by value."""
    db = run.database

    def read(server, key):
        return OpDescriptor("plain_read", server, "accounts",
                            key).bind(db.dispatch_context)

    homes = {key: db.partition_of("accounts", key) for key in range(1, 9)}
    out.append((yield OneSided(homes[1], read(homes[1], 1),
                               kind="lock_read")))
    out.append((yield All([OneSided(homes[k], read(homes[k], k),
                                    kind="lock_read")
                           for k in range(2, 7)])))
    for server in (0, 1):
        keys = [k for k in homes if homes[k] == server]
        out.append((yield BatchedOneSided(
            server, [read(server, k) for k in keys], kind="lock_read")))
        out.append((yield Rpc(server, ("echo", keys))))


def topology_driver(program, run, cluster, worker_id):
    """Drive ``program`` from DRIVER_HOME's owner; report what it
    produced and this worker's local/wire split.

    A worker reports at its *local* quiescence, so one that only
    serves would snapshot its counters before any request reached it.
    It therefore holds a task open until the driver's last act — a
    ``finish`` message to every server, FIFO behind everything else —
    arrives."""
    seed_txn_ids(worker_id)
    out: list = []

    def drive():
        yield from program(run, out)
        for server in range(len(cluster)):
            cluster.engine(DRIVER_HOME).post(server, ("finish", None))

    def serve_until_finished():
        yield Await(run.finished)

    if cluster.owns(DRIVER_HOME):
        cluster.engine(DRIVER_HOME).spawn(drive())
    else:
        cluster.engine(cluster.owned_servers()[0]).spawn(
            serve_until_finished())

    def finalize() -> dict:
        stats = cluster.network.stats
        return {"out": out, "split": [getattr(stats, f) for f in SPLIT]}

    return finalize


def run_on_topology(topology, program, executor="2pl"):
    backend, workers = topology
    config = dataclasses.replace(conformance_config(backend,
                                                    mp_workers=workers),
                                 doorbell_batching=True)
    run = build_topology_run(config, executor)
    cluster = run.database.cluster
    if backend == "mp":
        payloads = run_mp_workers(
            cluster, partial(topology_driver, program, run), config)
    else:
        finalize = topology_driver(program, run, cluster, 0)
        cluster.run()
        payloads = [finalize()]
    [out] = [p["out"] for p in payloads if p["out"]]
    split = [sum(column) for column in zip(*(p["split"] for p in payloads))]
    return out, dict(zip(SPLIT, split))


def test_effect_program_is_identical_on_every_topology():
    results = [run_on_topology(t, effect_program) for t in TOPOLOGIES]
    out, split = results[0]
    assert len(out) == 6
    assert [reply[:2] for reply in (out[3], out[5])] == [(0, 0), (1, 0)]
    # both halves of the split are exercised, and the chains fused
    assert split["one_sided_local"] and split["one_sided_remote"]
    assert split["messages_local"] and split["messages"]
    assert split["one_sided_batches"]
    for other in results[1:]:
        assert other == (out, split)
    assert no_leaked_workers()


@pytest.mark.parametrize("executor", ["2pl", "occ"])
def test_conformance_program_is_identical_on_every_topology(executor):
    sim = run_conformance("sim", executor)
    results = [run_on_topology(t, decision_program, executor)
               for t in TOPOLOGIES]
    for decisions, split in results:
        assert decisions == sim
        assert split == results[0][1]
    assert no_leaked_workers()


# -- end-to-end benchmark path ------------------------------------------------


def test_tpcc_cell_runs_on_mp_backend():
    """The full setups path (Database + replicas + RPC dispatch) on real
    worker processes, wall-clock metrics merged at the parent — with
    tracing and the live timeline on, the only healthy fleet that ships
    ``FRAME_VERBS_TRACED`` frames and ``metrics_sample`` rows."""
    run = make_tpcc_run("2pl", mp_config(horizon_us=20_000.0, trace=True,
                                         metrics_interval=50_000.0))
    assert run.database.cluster.worker_id is None
    result = run.run()
    assert result.metrics.commits > 0
    assert result.metrics.wall_seconds > 0.0
    assert result.metrics.events_processed > 0
    summary = result.perf_summary()
    assert summary["backend"] == "mp"
    assert summary["workers"] == 2
    # the workers' measured traffic is merged into the parent result
    stats = result.database.cluster.network.stats
    assert stats.total_remote_ops() > 0
    assert stats.total_bytes() > 0
    # coordinator- and participant-side spans of one transaction stitch
    # under one trace id across the worker boundary
    metrics = result.metrics
    assert any(len(critical_path(spans)["servers"]) > 1
               for spans in trace_tree(metrics.trace.spans).values())
    # live shipping lost nothing and double-counted nothing: the merged
    # timeline lands exactly on the workers' final aggregates
    timeline = metrics.timeline
    assert timeline.totals()["commits"] == metrics.commits
    assert timeline.servers() == sorted(metrics.scheduler_stats)
    assert timeline.dropped == 0
    assert not [e.message for e in timeline.health if e.kind == "stall"]
    assert no_leaked_workers()


@pytest.mark.parametrize("executor", TPCC_EXECUTORS)
def test_a_quick_two_worker_figure_cell_commits(executor, monkeypatch):
    """``fig9a --quick --backend mp --workers 2``: each executor's cell
    commits inside its measurement window (at the simulated cells'
    5 ms horizon most of them printed 0.00)."""
    monkeypatch.setattr(experiments, "TPCC_EXECUTORS", (executor,))
    rows = experiments.fig9_rows(concurrency=(1,), quick=True,
                                 overrides=dict(backend="mp", mp_workers=2))
    assert rows[0][f"{executor}_throughput"] > 0
    assert no_leaked_workers()


def test_mp_timeline_counts_wire_bytes_as_they_leave():
    """Regression: the transport used to keep its own byte count and
    fold it into the stats at quiescence, so every live row read zero
    and the whole run's ``wire_bytes_sent`` landed on the final flush."""
    result = make_tpcc_run("2pl", mp_config(
        horizon_us=250_000.0, metrics_interval=50_000.0)).run()
    rows = result.metrics.timeline.rows()
    live = [row for row in rows
            if not row.final and row.counters.get("wire_bytes_sent")]
    assert len(live) > 1
    assert sum(row.counters.get("wire_bytes_sent", 0) for row in rows) \
        == result.database.cluster.network.stats.wire_bytes_sent > 0
    assert no_leaked_workers()


def test_run_mp_benchmark_merges_worker_metrics():
    config = mp_config(horizon_us=20_000.0)
    run = make_tpcc_run("2pl", config)
    result = run_benchmark(run.workload, run.executor, config)
    attempts_per_proc = Counter(o.proc for o in result.metrics.outcomes)
    assert sum(attempts_per_proc.values()) == result.metrics.attempts > 0
    # what is off stays off in every worker: no trace or timeline state
    # is allocated, and no WAL record is written
    assert result.metrics.trace is None and result.metrics.timeline is None
    assert "recovery" not in result.perf_summary()
    assert no_leaked_workers()


@pytest.mark.parametrize("executor", TPCC_EXECUTORS)
def test_an_mp_history_comes_home_whole_and_serializable(executor):
    """Each worker ships the commit logs its coordinators wrote; their
    union is the run's history, checked like a sim run's."""
    result = make_tpcc_run(executor, mp_config(
        horizon_us=40_000.0, concurrent_per_engine=4,
        record_history=True)).run()
    history = result.history
    assert result.metrics.commits > 0
    assert len(history.commits) == result.metrics.commits
    assert len({log.txn_id for log in history.commits}) \
        == len(history.commits)
    assert history.find_cycle() is None
    assert no_leaked_workers()


def test_an_mp_run_samples_every_process_when_traced():
    """With ``trace`` on, the parent and each worker count where their
    time went; each process's shares sum to 1."""
    result = make_tpcc_run("2pl", mp_config(horizon_us=100_000.0,
                                            trace=True)).run()
    table = result.perf_summary()["samples"]
    assert sorted(table) == ["parent", "worker-0", "worker-1"]
    for row in table.values():
        assert row["n"] > 0
        assert sum(share for _, share in row["shares"]) \
            == pytest.approx(1.0)
    # the parent only supervises: it spends its time in the wait
    assert dict(table["parent"]["shares"]).get("wait", 0.0) > 0.5
    assert no_leaked_workers()


# -- one build, inherited -------------------------------------------------------
#
# An mp run is built once, in the parent; every worker, and every
# respawn, forks from that untouched parent and serves its copy.


def count_database_builds(monkeypatch, ledger) -> None:
    """Every Database construction, in whichever process of the run,
    appends that process's pid to ``ledger`` (the patch reaches the
    forked workers)."""
    from repro.txn import Database
    real_init = Database.__init__

    def counting_init(self, *args, **kwargs):
        with open(ledger, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Database, "__init__", counting_init)


@pytest.mark.parametrize("chaos", [False, True],
                         ids=["two_workers", "chaos_restart"])
def test_an_mp_run_builds_its_database_once_in_the_parent(chaos, monkeypatch,
                                                          tmp_path):
    from repro.bench.setups import make_ycsb_run
    from repro.workloads.ycsb import YcsbWorkload

    ledger = tmp_path / "builds.txt"
    count_database_builds(monkeypatch, ledger)
    fields = dict(mp_workers=2, horizon_us=200_000.0)
    if chaos:
        fields.update(horizon_us=800_000.0, wal="group",
                      wal_dir=str(tmp_path), mp_recovery=True,
                      mp_max_restarts=1, mp_chaos_kill_worker=1,
                      mp_chaos_kill_after_s=0.3)
    result = make_ycsb_run("2pl", mp_config(**fields),
                           workload=YcsbWorkload(n_keys=256)).run()
    assert result.metrics.commits > 0
    if chaos:
        # the respawn replayed its predecessor's log: it really ran
        assert result.metrics.recovery_stats.recoveries >= 1
    assert ledger.read_text().split() == [str(os.getpid())]
    assert no_leaked_workers()


def test_a_second_fleet_forks_from_the_parent_not_the_first_fleet():
    """``Run.run()`` folds each fleet's traffic into the parent's stats,
    and the next fleet forks from that parent: it must count from zero
    and decide exactly as the first fleet did."""
    from repro.bench.harness import execute

    config = conformance_config("mp", doorbell_batching=True)
    run = build_topology_run(config)
    stats = run.database.cluster.network.stats

    def program_fleet():
        payloads = execute(run, partial(topology_driver, decision_program))
        [out] = [p["out"] for p in payloads if p["out"]]
        return out, [sum(column)
                     for column in zip(*(p["split"] for p in payloads))]

    first = program_fleet()
    assert stats.total_remote_ops() == 0, "execute() folds nothing"
    results = [run.run() for _ in range(2)]
    assert all(result.metrics.commits > 0 for result in results)
    assert stats.total_remote_ops() > 0
    assert program_fleet() == first
    assert first[0] == run_conformance("sim")
    assert no_leaked_workers()


# -- teardown regressions -----------------------------------------------------
#
# Workers must be *joined*, never leaked, when a run aborts mid-horizon
# — whether the failure is a driver crash, an unshippable payload, or
# a hang caught by the timeout.


def exploding_driver(run_obj, cluster, worker_id):
    raise RuntimeError("boom-at-build")


def null_driver(run_obj, cluster, worker_id):
    return dict


def test_worker_build_failure_aborts_run_and_joins_workers():
    """A worker whose driver fails while setting up its share."""
    with pytest.raises(MpRunError, match="boom-at-build"):
        run_fleet(exploding_driver, mp_config())
    assert no_leaked_workers()


def closure_driver(run_obj, cluster, worker_id):
    """Ships a raw closure at a remote server: must fail loudly."""
    def program():
        yield OneSided(1, lambda: 1)

    if cluster.owns(0):
        cluster.engine(0).spawn(program())
    return dict


def test_raw_closure_to_remote_server_raises_codec_error():
    with pytest.raises(MpRunError, match="process boundary"):
        run_fleet(closure_driver, mp_config())
    assert no_leaked_workers()


def hanging_driver(run_obj, cluster, worker_id):
    def forever():
        yield Sleep(3_600_000_000.0)  # an hour of wall clock

    for server in cluster.owned_servers():
        cluster.engine(server).spawn(forever())
    return dict


def test_hung_worker_is_terminated_not_leaked():
    with pytest.raises(MpRunError, match="timed out"):
        run_fleet(hanging_driver, mp_config(run_timeout_s=4.0))
    assert no_leaked_workers()


def test_a_replacement_stuck_in_its_handshake_is_not_leaked(monkeypatch,
                                                           tmp_path):
    """A respawn that never advertises its port times the run out from
    inside the restart; teardown must still reach that replacement.
    (The patch reaches the workers because they fork.)"""
    from repro.sim import supervisor
    real_body = supervisor._worker_body

    def stuck_respawn(conn, cluster, driver, config, worker_id, generation,
                      resume_at_us):
        if generation > 0:
            time.sleep(3600)
        real_body(conn, cluster, driver, config, worker_id, generation,
                  resume_at_us)

    monkeypatch.setattr(supervisor, "_worker_body", stuck_respawn)
    config = mp_config(run_timeout_s=4.0, wal="group",
                       wal_dir=str(tmp_path), mp_recovery=True,
                       mp_max_restarts=1, mp_chaos_kill_worker=1,
                       mp_chaos_kill_after_s=0.0)
    with pytest.raises(MpRunError, match="to report 'port'"):
        run_fleet(hanging_driver, config)
    assert no_leaked_workers()


# -- fork hygiene ---------------------------------------------------------------
#
# A forked worker starts as a copy of the parent: every descriptor,
# signal handler and module global.  It must shed the parent's
# descriptors (holding a sibling's control pipe or the metrics
# listener open would outlive the parent's close of it) and keep the
# globals (a constant a test patches now reaches the workers).


def socket_inodes() -> set[int]:
    """The inode of every socket this process holds a descriptor of.

    Sockets only: each end of a control pipe (a socketpair) has an inode
    of its own, where both ends of an ``os.pipe`` — such as the sentinel
    ``multiprocessing`` keeps per child — share one."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, closed by now
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def inheritance_driver(run_obj, cluster, worker_id):
    """Reports, from inside the worker, what it kept of the parent."""
    kept = {"inodes": socket_inodes(),
            "sigterm": signal.getsignal(signal.SIGTERM),
            "sigint": signal.getsignal(signal.SIGINT),
            "max_queue_per_class": conflict.MAX_QUEUE_PER_CLASS}
    return lambda: kept


def run_inheritance(config, **hooks) -> list[dict]:
    return run_fleet(inheritance_driver, config, **hooks)


def test_a_worker_holds_no_pipe_of_the_parent_nor_its_listener():
    """Every socket the parent opens during the run is its end of a
    worker's control pipe (the workers' own ends it closes at once);
    the listener predates the run.  No worker may hold either."""
    config = mp_config()
    endpoint = MetricsHttpServer(0, str)
    endpoint.listen()
    listener = os.fstat(endpoint.fileno()).st_ino
    before = socket_inodes()
    during: list[set[int]] = []
    try:
        payloads = run_inheritance(
            config, on_tick=lambda: during.append(socket_inodes()),
            tick_s=0.001, endpoint=endpoint)
    finally:
        endpoint.stop()
    parent_ends = set().union(*during) - before
    assert len(parent_ends) >= 2, "no tick saw the fleet's pipes"
    assert listener in before
    for kept in payloads:
        assert listener not in kept["inodes"]
        assert not parent_ends & kept["inodes"]
    assert no_leaked_workers()


def test_a_worker_restores_the_default_signal_handlers():
    """``terminate`` (SIGTERM) must stop a worker whatever handler the
    parent runs under."""
    def handler(signum, frame):
        pass

    old = {sig: signal.signal(sig, handler)
           for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        payloads = run_inheritance(mp_config())
    finally:
        for sig, previous in old.items():
            signal.signal(sig, previous)
    for kept in payloads:
        assert kept["sigterm"] == signal.SIG_DFL
        assert kept["sigint"] is signal.default_int_handler


def test_a_constant_patched_in_the_parent_reaches_every_worker(monkeypatch):
    monkeypatch.setattr(conflict, "MAX_QUEUE_PER_CLASS", 3)
    payloads = run_inheritance(mp_config())
    assert [kept["max_queue_per_class"] for kept in payloads] == [3, 3]


class PickleCount:
    """A worker payload that counts the times it is pickled (once per
    message it rides) and ends its process instead of pickle ``die_at``."""

    def __init__(self, die_at=None):
        self.pickled = 0
        self.die_at = die_at

    def __getstate__(self):
        self.pickled += 1
        if self.pickled == self.die_at:
            os._exit(0)
        return self.__dict__


def run_counted_payloads(die_at=None) -> list[tuple[int, int]]:
    def driver(run_obj, cluster, worker_id):
        payload = {"done": PickleCount(), "live": PickleCount(die_at)}
        return lambda: payload

    payloads = run_fleet(driver, mp_config())
    return [(payload["done"].pickled, payload["live"].pickled)
            for payload in payloads]


def test_a_worker_ships_its_live_part_again_once_it_stops_serving():
    """What a worker counts after ``done`` (serving the other workers
    until the stop) comes home in a second shipment of its payload's
    ``live`` part alone, which the parent keeps ..."""
    assert run_counted_payloads() == [(1, 2), (1, 2)]
    assert no_leaked_workers()


def test_a_worker_that_dies_after_done_keeps_its_done_payload():
    """... and a worker that dies before that shipment leaves the run
    its ``done`` payload."""
    assert run_counted_payloads(die_at=2) == [(1, 1), (1, 1)]
    assert no_leaked_workers()


# -- wire path: the pickle escape hatch ----------------------------------------
#
# Struct-packed hot-verb frames must be invisible to decision logic: the
# conformance program commits/aborts identically however its frames are
# encoded.


@pytest.mark.parametrize("executor", ["2pl", "occ"])
def test_pickle_codec_conformance(executor):
    sim = run_conformance("sim", executor)
    assert run_conformance("mp", executor, mp_codec="pickle") == sim
    assert no_leaked_workers()


@pytest.mark.parametrize("knob", ["mp_transport", "mp_codec"])
def test_unknown_wire_knob_fails_before_any_spawn(knob):
    with pytest.raises(ValueError, match="carrier-pigeon"):
        run_fleet(null_driver, mp_config(**{knob: "carrier-pigeon"}))
    assert no_leaked_workers()


def test_recovery_without_a_durable_wal_fails_before_any_spawn(monkeypatch):
    """A worker respawned over no log loses the writes its predecessor
    committed, and the run used to report success anyway."""
    from repro.bench.setups import make_ycsb_run
    from repro.sim import supervisor

    monkeypatch.setattr(supervisor, "_start_worker",
                        lambda *args: pytest.fail("spawned a worker"))
    run = make_ycsb_run("2pl", mp_config(mp_recovery=True, wal="off"))
    with pytest.raises(ValueError, match=r'wal="fsync"\|"group"'):
        run.run()


def stats_driver(run_obj, cluster, worker_id):
    """Runs the conformance program and reports measured wire bytes."""
    seed_txn_ids(worker_id)
    decisions: list = []
    if cluster.owns(DRIVER_HOME):
        cluster.engine(DRIVER_HOME).spawn(
            decision_program(run_obj, decisions))

    def finalize() -> dict:
        return {"decisions": decisions,
                "wire_bytes": cluster.network.stats.wire_bytes_sent}

    return finalize


def _conformance_wire_bytes(mp_codec: str) -> int:
    payloads = run_fleet(stats_driver,
                         conformance_config("mp", mp_codec=mp_codec))
    total = sum(p["wire_bytes"] for p in payloads)
    assert total > 0, "the conformance program must cross the wire"
    return total


def test_packed_codec_shrinks_measured_wire_bytes():
    """The same fixed program ships measurably fewer bytes packed than
    pickled — the NetworkStats accounting reflects *actual* frame sizes,
    not nominal estimates."""
    assert _conformance_wire_bytes("packed") < _conformance_wire_bytes(
        "pickle")
    assert no_leaked_workers()


# -- idle() accounting --------------------------------------------------------


class _StubWorkerCluster:
    """Just enough cluster for transport-level unit tests."""

    worker_id = 0

    def __init__(self):
        self.network = SimpleNamespace(stats=NetworkStats())

    def owner_of(self, server_id: int) -> int:
        return 1  # everything routes to the (fake) peer worker


def test_idle_counts_popped_but_unwritten_frames():
    """A frame stays in this process, and keeps ``idle()`` False, until
    the kernel has taken its last byte: while its dial is in progress,
    and while it sits in asyncio's write buffer because the peer is not
    reading — quiescence on anything less would let a worker shut down
    holding a frame."""
    async def main():
        listener = bind_listener()      # accepts in the kernel, reads nothing
        transport = TcpTransport(_StubWorkerCluster(), listener=None,
                                 ports={1: listener.getsockname()[1]})
        transport._loop = asyncio.get_running_loop()  # started, no server
        assert transport.idle()

        wire = WireVerbs(1, (("release", 1, None, None, (7001,)),), False)
        assert transport.send(0, 1, wire, "a test verb") > 0
        assert not transport.idle(), "the frame waits for its dial"
        while transport._senders[1].transport is None:
            await asyncio.sleep(0.001)
        assert transport.idle()         # a small frame fits the socket buffer

        big = WireOneWay(b"x" * (8 << 20))   # far more than a socket buffers
        transport.send(0, 1, big, "a big message")
        await asyncio.sleep(0.01)
        assert not transport.idle(), \
            "bytes the kernel has not taken: the transport must stay busy"

        peer, _address = listener.accept()
        peer.setblocking(False)
        loop = asyncio.get_running_loop()
        while not transport.idle():     # ...until the peer reads them
            await loop.sock_recv(peer, 1 << 20)
        peer.close()
        listener.close()
        await transport.stop()

    asyncio.run(asyncio.wait_for(main(), 30.0))
