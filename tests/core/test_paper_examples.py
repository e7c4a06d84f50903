"""Reproductions of the paper's worked examples (Figs. 1, 2, 4, 5)."""

import pytest

from repro.core import (ChillerPartitionerConfig, HotRecordTable,
                        RegionPlanner, TxnSample, partition_workload)
from repro.core import partitioner
from repro.storage import Catalog
from repro.workloads.flightbooking import flight_booking_procedure

ACCT = "accounts"


def fig5_samples():
    """The 7-record / 4-transaction workload of Fig. 5a.

    dave=1 jack=2 henry=3 phil=4 rose=5 adam=6 bob=7
    """
    return [
        TxnSample("t1", reads=((ACCT, 1), (ACCT, 2), (ACCT, 3)),
                  writes=()),
        TxnSample("t2", reads=(),
                  writes=((ACCT, 4), (ACCT, 5), (ACCT, 3))),
        TxnSample("t3", reads=(), writes=((ACCT, 6), (ACCT, 5))),
        TxnSample("t4", reads=((ACCT, 5), (ACCT, 7)), writes=()),
    ]


def fig5_likelihoods():
    """rose (5) is hottest, then henry (3); read-only records are 0."""
    return {
        (ACCT, 3): 0.37, (ACCT, 4): 0.13, (ACCT, 5): 1.0,
        (ACCT, 6): 0.13,
        (ACCT, 1): 0.0, (ACCT, 2): 0.0, (ACCT, 7): 0.0,
    }


@pytest.fixture(autouse=True)
def fig5_partitioner(monkeypatch):
    """The example's lookup-table bar (likelihood above 0.1), and its
    balance notion: 'split the set of records in half' -> the
    'records' load metric."""
    monkeypatch.setattr(partitioner, "HOT_THRESHOLD", 0.1)
    monkeypatch.setattr(partitioner, "LOAD_METRIC", "records")


def fig5_config(**overrides):
    """Enough slack for a 4/3 split of the 7 records."""
    defaults = dict(eps=0.15, seed=3)
    defaults.update(overrides)
    return ChillerPartitionerConfig(**defaults)


def test_fig5_contention_centric_partitioning_zero_cut():
    """Fig. 5c: a two-way split exists with zero contention cut, with
    every written record co-located and t2/t3 fully local."""
    result = partition_workload(
        fig5_samples(), fig5_likelihoods(), n_partitions=2,
        config=fig5_config())
    assert result.cut_weight == pytest.approx(0.0)
    hot_side = {result.record_assignment[(ACCT, r)] for r in (3, 4, 5, 6)}
    assert len(hot_side) == 1, "all contended records must co-locate"
    # records balance: 4 on the hot side, 3 on the other
    side = hot_side.pop()
    counts = [0, 0]
    for rid, part in result.record_assignment.items():
        counts[part] += 1
    assert sorted(counts) == [3, 4]
    # every transaction's inner host is where the hot records live
    # (all four have their only weighted edges there)
    assert result.inner_hosts[1] == side  # t2 (local)
    assert result.inner_hosts[2] == side  # t3 (local)


def test_fig5_t2_t3_local_t1_t4_distributed():
    """Fig. 5c's table: t2 and t3 become local; t1 and t4 span both
    partitions (one more distributed transaction than Schism's split —
    the trade the paper argues is worth making)."""
    result = partition_workload(
        fig5_samples(), fig5_likelihoods(), n_partitions=2,
        config=fig5_config())
    assignment = result.record_assignment

    def spans(records):
        return len({assignment[(ACCT, r)] for r in records})

    assert spans((4, 5, 3)) == 1   # t2 local
    assert spans((6, 5)) == 1      # t3 local
    assert spans((1, 2, 3)) == 2   # t1 distributed
    assert spans((5, 7)) == 2      # t4 distributed


def test_fig5_hot_records_enter_lookup_table():
    result = partition_workload(
        fig5_samples(), fig5_likelihoods(), n_partitions=2,
        config=fig5_config())
    assert (ACCT, 5) in result.hot_table
    assert (ACCT, 3) in result.hot_table
    assert (ACCT, 1) not in result.hot_table
    assert (ACCT, 7) not in result.hot_table
    # lookup table is much smaller than the record population
    assert result.lookup_table_size() <= 4


def test_fig5_keep_all_records_mimics_schism_table():
    result = partition_workload(
        fig5_samples(), fig5_likelihoods(), n_partitions=2,
        config=fig5_config(keep_all_records=True))
    assert result.lookup_table_size() == 7


class _StaticPlacement:
    """Fixed record placement for the Fig. 1/2 toy example."""

    def __init__(self, mapping):
        self.mapping = mapping

    def __call__(self, table, key):
        return self.mapping[(table, key)]

    partition_of = __call__     # as a catalog's scheme


def fig2_transaction_t3():
    """t3 of Fig. 1a: update r5, r4, r1 (r1 and r4 are hot)."""
    from repro.analysis import StoredProcedure, param_key, read, update

    return StoredProcedure(
        "t3", params=("k5", "k4", "k1"),
        ops=[
            read("r5", "recs", key=param_key("k5"), for_update=True),
            read("r4", "recs", key=param_key("k4"), for_update=True),
            read("r1", "recs", key=param_key("k1"), for_update=True),
            update("u5", target="r5",
                   set_fn=lambda p, c, i: {"v": c["r5"]["v"] + 1}),
            update("u4", target="r4",
                   set_fn=lambda p, c, i: {"v": c["r4"]["v"] + 1}),
            update("u1", target="r1",
                   set_fn=lambda p, c, i: {"v": c["r1"]["v"] + 1}),
        ])


def test_fig2_two_region_plan_for_t3():
    """Section 2.2: with r1, r4 hot on server 3 (here partition 2), t3's
    inner region is {r1, r4} and only r5 stays outer."""
    placement = _StaticPlacement({
        ("recs", "r1"): 2, ("recs", "r4"): 2,
        ("recs", "r5"): 0, ("recs", "r2"): 0, ("recs", "r3"): 1,
    })
    hot = HotRecordTable({("recs", "r1"): 2, ("recs", "r4"): 2})
    planner = RegionPlanner(hot, Catalog(3, placement), 0)
    proc = fig2_transaction_t3()
    params = {"k5": "r5", "k4": "r4", "k1": "r1"}
    plan = planner.plan(proc.instantiate(params), params)
    assert plan.two_region
    assert plan.inner_host == 2
    assert set(plan.inner_names()) == {"r4", "r1", "u4", "u1"}
    outer = {inst.name for inst in plan.outer}
    assert outer == {"r5", "u5"}
    assert plan.hot_inner_records == 2


def test_fig4_flight_example_region_split():
    """Fig. 4: with the flight hot, the inner region is {flight read,
    flight update, seats insert}; customer and tax stay outer; the
    feasibility check runs at the inner host (it needs the flight)."""
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    placement = _StaticPlacement({
        ("flight", 7): 1, ("seats", (7, 0)): 1,
        ("customer", 3): 0,
    })
    hot = HotRecordTable({("flight", 7): 1})
    planner = RegionPlanner(hot, Catalog(3, placement), 0)
    plan = planner.plan(proc.instantiate(params), params)
    assert plan.two_region
    assert plan.inner_host == 1
    assert set(plan.inner_names()) == {"f", "f_upd", "s_ins", "ok"}
    outer = {inst.name for inst in plan.outer}
    assert outer == {"c", "t", "c_upd"}


def test_fig4_insert_on_other_partition_blocks_inner_region():
    """Section 3.3 step 1: if the seats insert lived on a different
    partition than the flight, the flight could not enter the inner
    region (pk-dep child elsewhere)."""
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    placement = _StaticPlacement({
        ("flight", 7): 1, ("seats", (7, 0)): 2,  # child elsewhere!
        ("customer", 3): 0,
    })
    hot = HotRecordTable({("flight", 7): 1})
    planner = RegionPlanner(hot, Catalog(3, placement), 0)
    plan = planner.plan(proc.instantiate(params), params)
    assert not plan.two_region
    assert plan.blocked_hot_records == 1
