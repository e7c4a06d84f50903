"""No code mutates a stored fields dict.

A store keeps the dict it is handed, shares it between copies of a
record and hands it to readers as is; only an update's merge
(``partition.merge``) makes a new one.
That is sound only if nothing mutates a dict once stored: not a reader
(procedure bodies, inner regions, migration), and not the caller that
handed it over.  The oracle here swaps a read-only dict in at the store
boundary, runs every workload and executor on sim, and checks that
nothing raised, the commit counts are those of a plain run, and every
handed-over dict still equals what it held when it was stored.
"""

import contextlib

import pytest

from repro.bench import RunConfig
from repro.bench.conformance import run_migration_conformance
from repro.bench.setups import (build_instacart_layout,
                                build_instacart_setup, build_run,
                                make_instacart_run, make_tpcc_run,
                                make_ycsb_run)
from repro.partitioning import HashScheme
from repro.storage import Catalog, PartitionStore, TableSpec
from repro.storage import bucket, partition
from repro.workloads import instacart
from repro.workloads.bank import BankWorkload
from repro.workloads.instacart import InstacartWorkload
from repro.workloads.ycsb import YcsbWorkload


class ReadOnlyFields(dict):
    """A fields dict that refuses every mutation."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a stored fields dict was mutated")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


@contextlib.contextmanager
def read_only_stores():
    """Store a read-only copy of every dict handed to a store, and of
    every record an update merges.  Yields the ``(handed, snapshot)``
    pairs, to check the handed dicts were left alone."""
    handed = []
    put, insert = bucket.BucketStore.put, bucket.BucketStore.insert
    merge = partition.merge

    def frozen(fields):
        handed.append((fields, dict(fields)))
        return ReadOnlyFields(fields)

    def read_only_put(self, key, fields, version=0):
        put(self, key, frozen(fields), version)

    def read_only_insert(self, key, fields):
        return insert(self, key, frozen(fields))

    def read_only_merge(old, updates):
        return ReadOnlyFields(merge(old, updates))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bucket.BucketStore, "put", read_only_put)
        patch.setattr(bucket.BucketStore, "insert", read_only_insert)
        patch.setattr(partition, "merge", read_only_merge)
        yield handed


def test_a_write_leaves_a_dict_a_reader_holds_unchanged():
    store = PartitionStore(0, [TableSpec("acct")])
    loaded = {"balance": 100, "name": "a"}
    store.load("acct", 1, loaded)
    held, version = store.read("acct", 1)
    assert held is loaded and version == 0
    store.apply([("update", "acct", 1, {"balance": 90})], redo=False)
    assert held == {"balance": 100, "name": "a"}
    fields, version = store.read("acct", 1)
    assert fields == {"balance": 90, "name": "a"} and version == 1
    assert list(fields) == ["balance", "name"]      # the order of old


def test_the_oracle_refuses_a_mutation_and_sees_a_handed_dict_change():
    with read_only_stores() as handed:
        store = PartitionStore(0, [TableSpec("acct")])
        loaded = {"balance": 100}
        store.load("acct", 1, loaded)
        store.apply([("update", "acct", 1, {"balance": 90})], redo=False)
        for probe in (lambda f: f.update(balance=0),
                      lambda f: f.__setitem__("balance", 0),
                      lambda f: f.pop("balance")):
            with pytest.raises(TypeError, match="mutated"):
                probe(store.read("acct", 1)[0])
        loaded["balance"] = -1
    assert [(f, s) for f, s in handed if f != s] == [
        ({"balance": -1}, {"balance": 100})]


def tiny_config(**fields):
    base = dict(n_partitions=4, concurrent_per_engine=8,
                horizon_us=600.0, warmup_us=50.0, seed=11)
    return RunConfig(**{**base, **fields})


def tpcc(executor):
    return lambda: make_tpcc_run(executor, tiny_config(n_replicas=2))


def ycsb(executor):
    workload = YcsbWorkload(n_keys=400, reads_per_txn=4, writes_per_txn=4,
                            zipf_exponent=0.9)
    return lambda: make_ycsb_run(executor, tiny_config(n_replicas=1),
                                 workload=workload)


def instacart_run():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instacart, "N_CUSTOMERS", 200)
        workload = InstacartWorkload(n_products=300)
    setup = build_instacart_setup(3, n_train=300, workload=workload, seed=11)
    layout = build_instacart_layout(setup, "chiller", seed=11)
    return make_instacart_run(setup, layout, tiny_config(
        n_partitions=3, n_replicas=1, route_by_data=True))


def bank_run():
    return build_run(BankWorkload(n_accounts=60), Catalog(
        3, HashScheme(3)), tiny_config(n_partitions=3), "2pl")


def commits(make):
    return make().run().metrics.commits


PROGRAMS = {"tpcc_chiller": tpcc("chiller"), "tpcc_2pl": tpcc("2pl"),
            "ycsb_2pl": ycsb("2pl"), "ycsb_occ": ycsb("occ"),
            "instacart": instacart_run, "bank": bank_run}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_run_mutates_a_stored_dict(name):
    plain = commits(PROGRAMS[name])
    with read_only_stores() as handed:
        assert commits(PROGRAMS[name]) == plain > 0
    assert handed and all(fields == snapshot for fields, snapshot in handed)


def test_the_migration_program_mutates_no_stored_dict():
    plain = run_migration_conformance("sim")
    with read_only_stores() as handed:
        assert run_migration_conformance("sim") == plain
    assert handed and all(fields == snapshot for fields, snapshot in handed)
