"""Region planner edge cases beyond the paper-example tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (ProcedureRegistry, StoredProcedure, check,
                            derived_key, insert, param_key, read, update)
from repro.core import HotRecordTable, RegionPlanner
from repro.partitioning import ModuloScheme
from repro.storage import Catalog
from repro.workloads.tpcc import (REPLICATED_TABLES, TpccWorkload,
                                  tpcc_routing)


class Placement:
    def __init__(self, mapping, default=0):
        self.mapping = mapping
        self.default = default

    def __call__(self, table, key):
        return self.mapping.get((table, key), self.default)

    partition_of = __call__     # as a catalog's fallback scheme


def simple_proc():
    return StoredProcedure(
        "p", params=("a", "b"),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            read("rb", "t", key=param_key("b"), for_update=True),
            update("ua", target="ra",
                   set_fn=lambda p, c, i: {"v": c["ra"]["v"] + 1}),
            update("ub", target="rb",
                   set_fn=lambda p, c, i: {"v": c["rb"]["v"] + 1}),
        ])


def plan_for(proc, params, hot, placement):
    planner = RegionPlanner(HotRecordTable(hot), placement)
    return planner.plan(proc.instantiate(params), params)


def test_no_hot_records_means_normal_execution():
    plan = plan_for(simple_proc(), {"a": 1, "b": 2}, {},
                    Placement({("t", 1): 0, ("t", 2): 1}))
    assert not plan.two_region
    assert plan.inner_host is None
    assert len(plan.outer) == 4


def test_single_hot_record_defines_inner_host():
    plan = plan_for(simple_proc(), {"a": 1, "b": 2},
                    {("t", 1): 0},
                    Placement({("t", 1): 0, ("t", 2): 1}))
    assert plan.two_region
    assert plan.inner_host == 0
    assert set(plan.inner_names()) == {"ra", "ua"}


def test_inner_host_majority_vote():
    """Step 2: the partition with the most hot records wins."""
    proc = StoredProcedure(
        "p3", params=("a", "b", "c"),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            read("rb", "t", key=param_key("b"), for_update=True),
            read("rc", "t", key=param_key("c"), for_update=True),
            update("ua", target="ra", set_fn=lambda p, c, i: {}),
            update("ub", target="rb", set_fn=lambda p, c, i: {}),
            update("uc", target="rc", set_fn=lambda p, c, i: {}),
        ])
    placement = Placement({("t", 1): 0, ("t", 2): 1, ("t", 3): 1})
    hot = {("t", 1): 0, ("t", 2): 1, ("t", 3): 1}
    plan = plan_for(proc, {"a": 1, "b": 2, "c": 3}, hot, placement)
    assert plan.inner_host == 1
    assert {"rb", "rc"} <= set(plan.inner_names())
    # the losing hot record stays outer (long span, as the paper warns)
    assert "ra" in {i.name for i in plan.outer}


def test_cold_records_colocated_with_inner_host_join_inner():
    """Section 4.3: r-vertices in the t-vertex's partition execute in
    the inner region even when cold."""
    plan = plan_for(simple_proc(), {"a": 1, "b": 2},
                    {("t", 1): 0},
                    Placement({("t", 1): 0, ("t", 2): 0}))
    assert set(plan.inner_names()) == {"ra", "rb", "ua", "ub"}
    assert plan.outer == []


def test_hot_reads_reordered_last_within_inner():
    """Idea (1): the hot record's lock is acquired at the end of the
    inner region, after the cold co-located ops."""
    plan = plan_for(simple_proc(), {"a": 1, "b": 2},
                    {("t", 1): 0},
                    Placement({("t", 1): 0, ("t", 2): 0}))
    names = plan.inner_names()
    assert names.index("ra") > names.index("rb")


def test_unknown_derived_placement_stays_outer():
    proc = StoredProcedure(
        "pd", params=("a",),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            read("rx", "t",
                 key=derived_key(("ra",),
                                 lambda p, ctx, i: ctx["ra"]["next"])),
            update("ua", target="ra", set_fn=lambda p, c, i: {}),
        ])
    # ra is hot but rx (pk-child, unknown placement) blocks it: rule (b)
    plan = plan_for(proc, {"a": 1}, {("t", 1): 0},
                    Placement({("t", 1): 0}))
    assert not plan.two_region
    assert plan.blocked_hot_records == 1


def test_insert_with_matching_hint_allows_inner():
    proc = StoredProcedure(
        "pi", params=("a",),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            insert("ix", "t2",
                   key=derived_key(("ra",),
                                   lambda p, ctx, i: ctx["ra"]["next"],
                                   partition_hint=lambda p, i: p["a"]),
                   fields_fn=lambda p, c, i: {}),
            update("ua", target="ra", set_fn=lambda p, c, i: {}),
        ])
    placement = Placement({("t", 1): 2, ("t2", 1): 2}, default=2)
    plan = plan_for(proc, {"a": 1}, {("t", 1): 2}, placement)
    assert plan.two_region
    assert set(plan.inner_names()) == {"ra", "ix", "ua"}


def test_check_depending_only_on_outer_reads_stays_outer():
    proc = StoredProcedure(
        "pc", params=("a", "b"),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            read("rb", "t", key=param_key("b")),
            check("cb", deps=("rb",),
                  predicate=lambda p, c, i: c["rb"]["v"] > 0),
            update("ua", target="ra", set_fn=lambda p, c, i: {}),
        ])
    plan = plan_for(proc, {"a": 1, "b": 2}, {("t", 1): 0},
                    Placement({("t", 1): 0, ("t", 2): 1}))
    assert plan.two_region
    outer_names = {i.name for i in plan.outer}
    assert "cb" in outer_names  # early abort at the coordinator


def test_check_depending_on_inner_read_goes_inner():
    proc = StoredProcedure(
        "pc2", params=("a", "b"),
        ops=[
            read("ra", "t", key=param_key("a"), for_update=True),
            read("rb", "t", key=param_key("b")),
            check("ca", deps=("ra", "rb"),
                  predicate=lambda p, c, i: c["ra"]["v"] > 0),
            update("ua", target="ra", set_fn=lambda p, c, i: {}),
        ])
    plan = plan_for(proc, {"a": 1, "b": 2}, {("t", 1): 0},
                    Placement({("t", 1): 0, ("t", 2): 1}))
    assert "ca" in plan.inner_names()
    # and it is ordered after the hot read it consumes
    names = plan.inner_names()
    assert names.index("ca") > names.index("ra")


# -- the plan cache against planning from scratch ------------------------------

N_PARTITIONS = 4
TPCC = TpccWorkload(n_partitions=N_PARTITIONS)
TPCC_PROCS = ProcedureRegistry()
for _proc in TPCC.procedures():
    TPCC_PROCS.register(_proc)


def tpcc_requests(seed, count):
    rng = random.Random(seed)
    requests = [TPCC.next_request(i % N_PARTITIONS, rng)
                for i in range(count)]
    return [(request, TPCC_PROCS.get(request.proc).instantiate(
        request.params)) for request in requests]


def exact_records(instances, params):
    """The records a transaction names before it runs: what can be hot."""
    for inst in instances:
        placement = inst.placement(params)
        if placement is not None and placement.exact:
            yield placement.table, placement.key


def as_tuple(plan):
    return (plan.two_region, plan.inner_host, plan.inner, plan.outer,
            plan.hot_inner_records, plan.blocked_hot_records)


def test_cached_plans_equal_plans_from_an_empty_cache():
    """Random TPC-C requests, random hot sets (warehouse and district
    rows favoured, so that two-region plans are common) and placement
    flips between plans; every request is planned twice, so the second
    round meets the signatures of the first."""
    hits = []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), data=st.data())
    def check(seed, data):
        staged = tpcc_requests(seed, 60)
        candidates = sorted({record for request, instances in staged
                             for record in exact_records(instances,
                                                         request.params)
                             if record[0] not in REPLICATED_TABLES},
                            key=repr)
        contended = [record for record in candidates
                     if record[0] in ("warehouse", "district")]
        pick = st.one_of(st.sampled_from(contended),
                         st.sampled_from(candidates))
        where = st.integers(0, N_PARTITIONS - 1)
        hot = HotRecordTable(data.draw(st.dictionaries(pick, where,
                                                       max_size=30)))
        flips = {at: (rid, pid) for at, rid, pid in data.draw(st.lists(
            st.tuples(st.integers(0, 2 * len(staged) - 1), pick, where),
            max_size=6))}
        catalog = Catalog(N_PARTITIONS, hot.live_scheme(
            ModuloScheme(N_PARTITIONS, routing=tpcc_routing)),
            replicated_tables=REPLICATED_TABLES)

        def placement(home):
            return lambda table, key: catalog.partition_of(table, key,
                                                           home)

        shared: dict = {}
        cached = [RegionPlanner(hot, placement(home), cache=shared)
                  for home in range(N_PARTITIONS)]
        for at, (request, instances) in enumerate(staged * 2):
            if at in flips:
                (table, key), pid = flips[at]
                hot.apply_move(table, key, pid, epoch=at + 1)
            fresh = RegionPlanner(hot, placement(request.home))
            want = fresh.plan(instances, request.params)
            got = cached[request.home].plan(instances, request.params)
            assert as_tuple(got) == as_tuple(want), (at, request)
        hits.append(2 * len(staged) - len(shared))
    check()
    assert sum(hits) > 40 * 30      # hits, not only misses, were compared


def test_a_cache_hit_rebinds_the_split_to_the_new_instances():
    proc, params = simple_proc(), {"a": 1, "b": 2}
    planner = RegionPlanner(HotRecordTable({("t", 1): 0}),
                            Placement({("t", 1): 0, ("t", 2): 1}))
    first = planner.plan(proc.instantiate(params), params)
    again = proc.instantiate(params)
    second = planner.plan(again, params)
    assert len(planner.cache) == 1
    assert second is not first
    assert all(any(inst is mine for mine in again)
               for inst in second.inner + second.outer)
    assert second.inner_names() == first.inner_names()


def test_layouts_with_as_many_ops_do_not_share_a_split():
    """Two layouts of one procedure, five ops each, whose ops read the
    same partitions and hot bits position by position — but position 1
    is an ``ra`` in one and an ``rb`` in the other, so the hot-last
    reorder splits them differently."""
    proc = StoredProcedure("two", params=("a", "b"), ops=[
        read("ra", "t", key=param_key(lambda p, i: i), for_update=True,
             foreach="a"),
        read("rb", "t", key=param_key(lambda p, i: i), foreach="b"),
        update("ua", target="ra", set_fn=lambda p, c, i: {}, foreach="a"),
    ])
    hot = HotRecordTable({("t", 1): 0})
    placement = Placement({("t", 2): 1, ("t", 6): 1})
    planner = RegionPlanner(hot, placement)
    wide_a, wide_b = {"a": [1, 5], "b": [2]}, {"a": [1], "b": [5, 6, 7]}
    first = planner.plan(proc.instantiate(wide_a), wide_a)
    second = planner.plan(proc.instantiate(wide_b), wide_b)
    assert first.inner_names() == ("ra[1]", "ua[1]", "ra[0]", "ua[0]")
    assert second.inner_names() == ("rb[0]", "rb[2]", "ra[0]", "ua[0]")
    assert len(planner.cache) == 2


def test_a_placement_flip_changes_the_signature():
    proc, params = simple_proc(), {"a": 1, "b": 2}
    hot = HotRecordTable({("t", 1): 0})
    table = hot.live_scheme(Placement({("t", 2): 1}))
    planner = RegionPlanner(hot, table.partition_of)
    assert planner.plan(proc.instantiate(params), params).inner_host == 0
    hot.apply_move("t", 1, 1, epoch=1)     # the hot record moves home
    plan = planner.plan(proc.instantiate(params), params)
    assert plan.inner_host == 1
    assert set(plan.inner_names()) == {"ra", "rb", "ua", "ub"}
    assert len(planner.cache) == 2
