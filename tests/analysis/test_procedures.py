"""Stored-procedure template, validation, and instantiation tests."""

import pytest

from repro.analysis import (StoredProcedure, check, derived_key, insert,
                            param_key, read, update)
from repro.storage import LockMode
from repro.workloads.flightbooking import flight_booking_procedure


def test_validation_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        StoredProcedure("p", ("k",), [
            read("a", "t", key=param_key("k")),
            read("a", "t", key=param_key("k")),
        ])


def test_validation_rejects_forward_references():
    with pytest.raises(ValueError, match="not declared earlier"):
        StoredProcedure("p", ("k",), [
            read("a", "t",
                 key=derived_key(("b",), lambda p, ctx, item: ctx["b"])),
            read("b", "t", key=param_key("k")),
        ])


def test_validation_rejects_update_of_shared_read():
    with pytest.raises(ValueError, match="for_update"):
        StoredProcedure("p", ("k",), [
            read("a", "t", key=param_key("k")),  # shared lock
            update("a_upd", target="a", set_fn=lambda p, c, i: {}),
        ])


def test_validation_rejects_update_targeting_non_read():
    with pytest.raises(ValueError, match="not a READ"):
        StoredProcedure("p", ("k",), [
            read("a", "t", key=param_key("k"), for_update=True),
            update("u1", target="a", set_fn=lambda p, c, i: {}),
            update("u2", target="u1", set_fn=lambda p, c, i: {}),
        ])


def test_validation_rejects_unknown_foreach_param():
    with pytest.raises(ValueError, match="unknown parameter"):
        StoredProcedure("p", ("k",), [
            read("a", "t", key=param_key(lambda p, item: item),
                 foreach="items"),
        ])


def test_validation_requires_predicate_for_check():
    with pytest.raises(ValueError, match="predicate"):
        StoredProcedure("p", ("k",), [
            check("c", deps=(), predicate=None),
        ])


def test_instantiate_simple_procedure():
    proc = flight_booking_procedure()
    instances = proc.instantiate({"flight_id": 7, "cust_id": 3})
    assert [i.name for i in instances] == proc.op_names()


def test_instantiate_expands_foreach():
    proc = StoredProcedure("p", ("items",), [
        read("stock", "stock", key=param_key(lambda p, item: item),
             for_update=True, foreach="items"),
        update("dec", target="stock",
               set_fn=lambda p, ctx, item: {"qty": ctx["stock"]["qty"] - 1},
               foreach="items"),
    ])
    instances = proc.instantiate({"items": [10, 20, 30]})
    names = [i.name for i in instances]
    assert names == ["stock[0]", "stock[1]", "stock[2]",
                     "dec[0]", "dec[1]", "dec[2]"]


def test_foreach_alias_binds_same_index():
    proc = StoredProcedure("p", ("items",), [
        read("stock", "stock", key=param_key(lambda p, item: item),
             for_update=True, foreach="items"),
        update("dec", target="stock",
               set_fn=lambda p, ctx, item: {"qty": ctx["stock"]["qty"] - 1},
               foreach="items"),
    ])
    instances = proc.instantiate({"items": [10, 20]})
    dec1 = next(i for i in instances if i.name == "dec[1]")
    ctx = {"stock[0]": {"qty": 5}, "stock[1]": {"qty": 9}}
    assert dec1.run_update({"items": [10, 20]}, ctx) == {"qty": 8}
    assert dec1.target_instance() == "stock[1]"


def test_placement_param_key_is_exact():
    proc = flight_booking_procedure()
    instances = {i.name: i for i in
                 proc.instantiate({"flight_id": 7, "cust_id": 3})}
    placement = instances["f"].placement({"flight_id": 7, "cust_id": 3})
    assert placement.table == "flight"
    assert placement.key == 7
    assert placement.exact


def test_placement_derived_key_without_hint_is_unknown():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    placement = instances["t"].placement(params)
    assert placement.table == "tax"
    assert not placement.known()


def test_placement_derived_key_with_hint():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    placement = instances["s_ins"].placement(params)
    assert placement.table == "seats"
    assert placement.key == (7, 0)
    assert not placement.exact


def test_update_placement_follows_target():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    placement = instances["f_upd"].placement(params)
    assert (placement.table, placement.key) == ("flight", 7)


def test_check_has_no_placement():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    assert instances["ok"].placement(params) is None


def test_concrete_key_resolution_with_ctx():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    ctx = {"f": {"price": 100.0, "seats": 42}}
    assert instances["s_ins"].concrete_key(params, ctx) == (7, 42)


def test_concrete_key_unresolved_raises():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    with pytest.raises(KeyError, match="has not been read"):
        instances["t"].concrete_key(params, {})


def test_run_check_and_semantics():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    ctx = {"f": {"price": 100.0, "seats": 1},
           "c": {"balance": 500.0, "name": "x", "state": 0},
           "t": {"rate": 0.1}}
    assert instances["ok"].run_check(params, ctx)
    ctx["c"]["balance"] = 10.0
    assert not instances["ok"].run_check(params, ctx)
    updates = instances["f_upd"].run_update(params, ctx)
    assert updates == {"seats": 0}


def test_lock_modes():
    proc = flight_booking_procedure()
    params = {"flight_id": 7, "cust_id": 3}
    instances = {i.name: i for i in proc.instantiate(params)}
    assert instances["f"].lock_mode() == LockMode.EXCLUSIVE
    assert instances["t"].lock_mode() == LockMode.SHARED


# -- compiled layouts against the per-transaction analysis they replaced ----


def _fresh_alias_map(proc, spec, index):
    """``StoredProcedure._alias_map`` as it was when every instance
    rebuilt it: the oracle for the compiled shapes."""
    if index is None:
        return {}
    alias = {}
    for dep in set(spec.pk_sources()) | set(spec.all_value_deps()):
        dep_spec = proc._by_name.get(dep)
        if dep_spec is not None and dep_spec.foreach == spec.foreach:
            alias[dep] = f"{dep}[{index}]"
    return alias


def _fresh_instances(proc, params):
    """(name, spec, item, index, alias, deps, pk sources, target) per
    instance, and the pk-children map, derived from the templates the
    way ``instantiate`` / ``RegionPlanner`` used to on every call."""
    rows, children = [], {}
    for spec in proc.ops:
        slots = ([(None, None)] if spec.foreach is None
                 else [(i, item)
                       for i, item in enumerate(params[spec.foreach])])
        for index, item in slots:
            alias = _fresh_alias_map(proc, spec, index)
            name = spec.name if index is None else f"{spec.name}[{index}]"
            deps = {alias.get(d, d) for d in
                    set(spec.pk_sources()) | set(spec.all_value_deps())}
            pk_sources = [alias.get(d, d) for d in spec.pk_sources()]
            target = (None if spec.target is None
                      else alias.get(spec.target, spec.target))
            rows.append((name, spec, item, index, alias, deps, pk_sources,
                         target))
            for parent in pk_sources:
                children.setdefault(parent, []).append(name)
    return rows, children


def _workloads():
    from repro.workloads.bank import BankWorkload
    from repro.workloads.instacart import InstacartWorkload
    from repro.workloads.tpcc import TpccScale, TpccWorkload
    from repro.workloads.ycsb import YcsbWorkload
    return [TpccWorkload(TpccScale(n_warehouses=2), n_partitions=2),
            YcsbWorkload(n_keys=200, reads_per_txn=3, writes_per_txn=2),
            BankWorkload(n_accounts=50, audit_fraction=0.3),
            InstacartWorkload(n_products=200, n_customers=50)]


@pytest.mark.parametrize("workload", _workloads(),
                         ids=lambda w: type(w).__name__)
def test_compiled_layouts_match_fresh_analysis(workload):
    import random
    procs = {proc.name: proc for proc in workload.procedures()}
    rng = random.Random(5)
    seen = set()
    for i in range(300):
        request = workload.next_request(i % 2, rng)
        proc = procs[request.proc]
        seen.add(proc.name)
        rows, children = _fresh_instances(proc, request.params)
        for _ in range(2):      # compiled, then answered from the cache
            instances = proc.instantiate(request.params)
            assert len(instances) == len(rows)
            for inst, row in zip(instances, rows):
                name, spec, item, index, alias, deps, pk_sources, target = row
                assert (inst.name, inst.spec, inst.shape.index) == (
                    name, spec, index)
                assert inst.item is item or inst.item == item
                assert inst._alias == alias
                assert set(inst.dep_instance_names()) == deps
                assert (len(inst.dep_instance_names()) == len(deps))
                assert list(inst.pk_source_instances()) == pk_sources
                assert inst.target_instance() == target
                assert (list(inst.pk_child_instances())
                        == children.get(name, []))
    assert seen == set(procs)   # every registered procedure was driven


def test_layouts_are_compiled_once_per_shape_and_bounded():
    from repro.analysis.procedures import LAYOUT_CAP
    proc = StoredProcedure("p", ("keys",), [
        read("r", "t", key=param_key(lambda p, k: k), for_update=True,
             foreach="keys"),
        update("u", target="r", set_fn=lambda p, c, i: {}, foreach="keys"),
    ])
    first = proc.instantiate({"keys": [1, 2]})
    again = proc.instantiate({"keys": [8, 9]})
    assert [a._shape is b._shape for a, b in zip(first, again)] == [True] * 4
    assert [inst.item for inst in again] == [8, 9, 8, 9]
    assert again[2].target_instance() == "r[0]"
    for n in range(3 * LAYOUT_CAP):
        assert len(proc.instantiate({"keys": list(range(n))})) == 2 * n
        assert len(proc._layouts) <= LAYOUT_CAP
