"""Every workload's write-ahead log replays whole.

A shrunk run of each workload and executor with ``wal="group"`` must
leave logs that :func:`replay_wal` reads back record for record: as many
records as the run appended, none dropped as undecodable.  Chiller's
logs hold all three roles (coordinator, participant, inner region).
The mp case holds the same of logs written by forked workers, which
``multiprocessing`` ends with ``os._exit``: nothing is flushed for them
on the way out.
"""

import os

import pytest

from repro.bench import RunConfig
from repro.bench.setups import (build_instacart_layout, build_instacart_setup,
                                make_instacart_run, make_tpcc_run,
                                make_ycsb_run)
from repro.sim.codec import CodecError
from repro.storage.wal import (R_PREPARE, ROLE_COORDINATOR, ROLE_INNER,
                               ROLE_PARTICIPANT, WalSpec, WriteAheadLog,
                               replay_wal, wal_path)
from repro.workloads import instacart
from repro.workloads.instacart import InstacartWorkload
from repro.workloads.ycsb import YcsbWorkload


def instacart_run(config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instacart, "N_CUSTOMERS", 200)
        workload = InstacartWorkload(n_products=300)
    setup = build_instacart_setup(config.n_partitions, n_train=300,
                                  workload=workload, seed=11)
    layout = build_instacart_layout(setup, "chiller", seed=11)
    return make_instacart_run(setup, layout, config)


RUNS = {
    "tpcc-2pl": lambda config: make_tpcc_run("2pl", config),
    "tpcc-occ": lambda config: make_tpcc_run("occ", config),
    "tpcc-chiller": lambda config: make_tpcc_run("chiller", config),
    "ycsb": lambda config: make_ycsb_run("2pl", config, YcsbWorkload(
        n_keys=2000, reads_per_txn=8, writes_per_txn=2)),
    "instacart": instacart_run,
}


MP = dict(backend="mp", mp_workers=2, horizon_us=200_000.0)
"""Two worker processes for three servers, a wall-clock horizon."""


def frames(path: str) -> int | None:
    """How many length-prefixed frames (4-byte little-endian length,
    then the record) tile the log to its last byte; None if the tail is
    torn."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = count = 0
    while offset + 4 <= len(data):
        offset += 4 + int.from_bytes(data[offset:offset + 4], "little")
        count += 1
    return count if offset == len(data) else None

CASES = [pytest.param(name, {}, id=name) for name in sorted(RUNS)]
CASES.append(pytest.param("ycsb", MP, id="ycsb-mp"))


@pytest.mark.parametrize("name,backend", CASES)
def test_every_appended_record_replays(name, backend, tmp_path):
    config = RunConfig(**{**dict(
        n_partitions=3, concurrent_per_engine=4, horizon_us=2_000.0,
        warmup_us=200.0, seed=3, n_replicas=2, wal="group",
        wal_dir=str(tmp_path)), **backend})
    result = RUNS[name](config).run()
    # on mp the workers' counts, merged; the parent appended nothing
    appended = result.metrics.recovery_stats.wal_appends
    records = []
    for file in sorted(os.listdir(tmp_path)):
        path = os.path.join(tmp_path, file)
        replayed = replay_wal(path)
        assert len(replayed) == frames(path), f"{file} does not replay whole"
        records += replayed
    assert appended > 0
    # on mp a worker keeps appending for the other worker's coordinators
    # after it reports done; what it counts until the stop ships too
    assert len(records) == appended
    roles = {record[2] for record in records if record[0] == R_PREPARE}
    if name == "tpcc-chiller":
        assert roles == {ROLE_COORDINATOR, ROLE_PARTICIPANT, ROLE_INNER}


def test_an_unmarshallable_record_is_refused_at_append(tmp_path):
    log = WriteAheadLog(wal_path(str(tmp_path), 0),
                        WalSpec(mode="group", dir=str(tmp_path)))
    try:
        with pytest.raises(CodecError, match="marshal"):
            log.append((R_PREPARE, 1, ROLE_COORDINATOR, 0,
                        (("update", "t", 1, {"f": object()}),)))
        assert log.stats.wal_appends == 0
    finally:
        log.close()
    assert replay_wal(log.path) == []
