"""Kernel probes: public functions of single layers, timed directly on
fixed inputs.  CPU microseconds per operation at nominal machine speed
(see ``measure.py``), the best of ``BURSTS`` bursts.  Run only with
``--trace 1``; no end-to-end metric depends on them.

Every probe degrades: if its target is gone or has changed shape, its
metrics read ``MISSING`` and one warning goes to standard error.
"""

from __future__ import annotations

import random
import shutil
import sys
import time

from measure import NOMINAL_OP_NS, Calibrator, scratch_dir

BURSTS = 5
MISSING = -1.0
"""Value of a metric whose probe target no longer exists."""

UNITS = {
    "bench.calib_ops_per_s": "1/s",
    "sim.codec.packed_roundtrip_us": "us",
    "sim.codec.pickle_roundtrip_us": "us",
    "sim.codec.packed_chain_bytes": "B",
    "sim.codec.pickle_chain_bytes": "B",
    "storage.wal.append_group_us": "us",
    "storage.wal.append_fsync_us": "us",
    "storage.lock_cycle_us": "us",
    "storage.read_us": "us",
    "analysis.instantiate_us": "us",
    "core.region_plan_us": "us",
    "sim.network.payload_bytes_us": "us",
    "sim.kernel.event_us": "us",
    "sched.admit_cycle_us": "us",
    "traffic.schedule_us_per_arrival": "us",
    "core.partition_workload_s": "s",
    "core.partition_cut_weight": "count",
    "partitioning.schism_s": "s",
    "traffic.p99_us_at_150k": "us",
    "traffic.p99_us_at_200k": "us",
    "traffic.max_rate_under_slo": "1/s",
}


def nominal_cpu_s(work) -> float:
    """CPU seconds ``work()`` takes, divided by the machine's slowdown
    measured just before and just after it."""
    calibrator = Calibrator()
    calibrator.burst()
    c0 = time.process_time()
    work()
    spent = time.process_time() - c0
    calibrator.burst()
    return spent / calibrator.slowdown()


def best_us_per_op(burst, ops: int) -> float:
    """CPU µs per operation: the fastest of ``BURSTS`` calls of
    ``burst()``, which performs ``ops`` operations."""
    return min(nominal_cpu_s(burst) for _ in range(BURSTS)) * 1e6 / ops


def calibration_ops_per_s() -> float:
    """Raw speed of the reference loop on this machine, so a reader can
    compare containers: ``1e9 / NOMINAL_OP_NS`` = 2.5M on the box the
    nominal speed was taken from."""
    calibrator = Calibrator()
    for _ in range(100):
        calibrator.burst()
    return 1e9 / (calibrator.slowdown() * NOMINAL_OP_NS)


def probe_codec() -> dict:
    from repro.sim.codec import FrameCodec, WireVerbs
    from repro.storage import LockMode
    chain = WireVerbs(1234, (
        ("lock_read", 1, "usertable", 7, (LockMode.EXCLUSIVE, 900001)),
        ("lock_read", 1, "usertable", 19, (LockMode.EXCLUSIVE, 900001)),
        ("plain_read", 1, "usertable", 55, ()),
        ("release", 1, None, None, (900001,)),
    ), True)
    out = {}
    for name, packed in (("packed", True), ("pickle", False)):
        codec = FrameCodec(("usertable",), packed=packed)
        encode, decode = codec.encode, codec.decode

        def burst():
            for _ in range(2_000):
                decode(encode(0, 1, chain, "chain"))
        out[f"sim.codec.{name}_roundtrip_us"] = best_us_per_op(burst, 2_000)
        out[f"sim.codec.{name}_chain_bytes"] = len(
            encode(0, 1, chain, "chain"))
    return out


def probe_wal() -> dict:
    from repro.storage.wal import (R_PREPARE, ROLE_PARTICIPANT, WalSpec,
                                   WriteAheadLog, wal_path)
    record = (R_PREPARE, 900001, ROLE_PARTICIPANT, 1,
              (("usertable", 7, {"counter": 3}),))
    out = {}
    directory = scratch_dir("probe-wal-")
    try:
        for name, mode, ops in (("group", "group", 2_000),
                                ("fsync", "fsync", 200)):
            log = WriteAheadLog(wal_path(directory, len(out)),
                                WalSpec(mode=mode, group_size=8))
            try:
                def burst():
                    for _ in range(ops):
                        log.append(record)
                out[f"storage.wal.append_{name}_us"] = best_us_per_op(
                    burst, ops)
            finally:
                log.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


def probe_storage() -> dict:
    from repro.storage import LockMode, TableSpec
    from repro.storage.partition import PartitionStore
    store = PartitionStore(0, [TableSpec("usertable", n_buckets=4096)])
    for key in range(1_000):
        store.load("usertable", key, {"counter": 0})

    def lock_burst():
        for key in range(1_000):
            store.try_lock("usertable", key, LockMode.EXCLUSIVE, 900001)
            store.release_all(900001)

    def read_burst():
        for key in range(1_000):
            store.read("usertable", key)
    return {"storage.lock_cycle_us": best_us_per_op(lock_burst, 1_000),
            "storage.read_us": best_us_per_op(read_burst, 1_000)}


def probe_planning() -> dict:
    """Instantiate and region-plan 200 fixed TPC-C requests."""
    from repro.bench import RunConfig
    from repro.bench.setups import make_tpcc_run
    run = make_tpcc_run("chiller", RunConfig(n_partitions=4))
    rng = random.Random(1)
    requests = [run.workload.next_request(i % 4, rng) for i in range(200)]
    registry = run.database.registry
    staged = [(registry.get(r.proc), r) for r in requests]

    def instantiate_burst():
        for proc, request in staged:
            proc.instantiate(request.params)
    planned = [(run.executor.make_planner(r.home),
                proc.instantiate(r.params), r.params) for proc, r in staged]

    def plan_burst():
        for planner, instances, params in planned:
            planner.plan(instances, params)
    return {"analysis.instantiate_us": best_us_per_op(instantiate_burst, 200),
            "core.region_plan_us": best_us_per_op(plan_burst, 200)}


def probe_network() -> dict:
    from repro.sim.network import approx_payload_bytes
    payload = {"txn": 900001,
               "writes": [("usertable", key, {"counter": key, "pad": "x" * 8})
                          for key in range(8)]}

    def burst():
        for _ in range(1_000):
            approx_payload_bytes(payload)
    return {"sim.network.payload_bytes_us": best_us_per_op(burst, 1_000)}


def probe_kernel() -> dict:
    from repro.sim.events import Simulator

    def burst():
        sim = Simulator()
        nothing = lambda: None      # noqa: E731
        for i in range(10_000):
            sim.schedule(float(i % 97), nothing)
        sim.run()
    return {"sim.kernel.event_us": best_us_per_op(burst, 10_000)}


def probe_sched() -> dict:
    from repro.sched import as_spec
    from repro.txn.common import Outcome, TxnRequest
    scheduler = as_spec("conflict").build(
        lambda request: tuple(request.params["write_keys"]))
    requests = [TxnRequest("ycsb", {"write_keys": (key, key + 1)})
                for key in range(0, 2_000, 2)]
    outcome = Outcome(1, "ycsb", True)

    def burst():
        for request in requests:
            decision = scheduler.admit(request, 0.0)
            scheduler.on_outcome(decision, outcome, 1.0, will_retry=False)
    return {"sched.admit_cycle_us": best_us_per_op(burst, len(requests))}


def probe_traffic() -> dict:
    from repro.traffic import ArrivalSpec
    from repro.traffic.arrivals import schedule_for_home
    spec = ArrivalSpec(process="poisson", offered_load=100_000.0,
                       deadline_us=1_000.0)
    n = len(schedule_for_home(spec, 0, 4, 7, 100_000.0))

    def burst():
        schedule_for_home(spec, 0, 4, 7, 100_000.0)
    return {"traffic.schedule_us_per_arrival": best_us_per_op(burst, n)}


def probe_partitioners() -> dict:
    """The offline half of the paper: no end-to-end workload pays it."""
    from repro.bench.setups import build_instacart_setup
    from repro.core import ChillerPartitionerConfig, partition_workload
    from repro.partitioning import SchismConfig, partition_schism
    setup = build_instacart_setup(4, n_train=1_500, seed=7)
    made = []
    chiller_s = nominal_cpu_s(lambda: made.append(partition_workload(
        setup.samples, setup.likelihoods, 4,
        ChillerPartitionerConfig(seed=7))))
    schism_s = nominal_cpu_s(lambda: partition_schism(
        setup.samples, 4, SchismConfig(seed=7)))
    return {"core.partition_workload_s": chiller_s,
            "core.partition_cut_weight": made[0].cut_weight,
            "partitioning.schism_s": schism_s}


def probe_rates(adapter, seed: int) -> dict:
    """The open-loop cell above its own rate: one sim run each at 150k
    and 200k arrivals/s.  The highest of the three rates whose p99 from
    scheduled arrival meets the cell's latency limit, with nothing shed
    (100k, the cell's own rate, is taken as met)."""
    cell = adapter.CELLS["ycsb_hot_open_sim"]
    out = {}
    best, still_met = adapter.OPEN_LOOP_RATE, True
    for label, rate in (("150k", 150_000.0), ("200k", 200_000.0)):
        run = adapter.hot_ycsb_run(seed, cell.horizon_us / 3, rate,
                                   cell.slo_us)
        obs = adapter.observe(cell, run, run.run())
        out[f"traffic.p99_us_at_{label}"] = obs["arrival_p99_us"]
        still_met = (still_met and obs["shed"] == 0
                     and obs["arrival_p99_us"] <= cell.slo_us)
        if still_met:
            best = rate
    out["traffic.max_rate_under_slo"] = best
    return out


def run_all(adapter, seed: int) -> dict[str, float]:
    """Every probe's metrics; ``MISSING`` where a probe could not run."""
    metrics = {name: MISSING for name in UNITS}
    probes = (
        ("calibration", lambda: {
            "bench.calib_ops_per_s": calibration_ops_per_s()}),
        ("codec", probe_codec),
        ("wal", probe_wal),
        ("storage", probe_storage),
        ("planning", probe_planning),
        ("network", probe_network),
        ("kernel", probe_kernel),
        ("sched", probe_sched),
        ("traffic", probe_traffic),
        ("partitioners", probe_partitioners),
        ("rates", lambda: probe_rates(adapter, seed)),
    )
    for name, probe in probes:
        try:
            metrics.update(probe())
        except Exception as exc:   # a probe must never fail the benchmark
            print(f"warning: probe {name} could not run "
                  f"({type(exc).__name__}: {exc}); its metrics read "
                  f"{MISSING}", file=sys.stderr)
    return metrics
