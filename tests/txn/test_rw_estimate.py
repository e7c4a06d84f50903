"""StoredProcedure.write_keys: the conflict-class fingerprint source.

The compiled write slots are checked against ``estimate_rw_sets``, the
per-request static-analysis walk they replaced, kept here as the oracle:
it instantiates the procedure, asks every op for its placement and
claims the exact ones.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OpKind, ProcedureRegistry
from repro.storage import LockMode
from repro.txn.common import TxnRequest
from repro.workloads.bank import BankWorkload
from repro.workloads.tpcc import TpccScale, TpccWorkload
from repro.workloads.ycsb import YcsbWorkload


def registry_of(workload):
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    return registry


def estimate_rw_sets(registry, request):
    """``(reads, writes)`` of ``(table, key)`` pairs, as knowable before
    running: only exact placements are claimed, and a read taken
    ``for_update`` counts as a write."""
    reads, writes = set(), set()
    for inst in registry.get(request.proc).instantiate(request.params):
        spec = inst.spec
        if spec.kind is OpKind.CHECK:
            continue
        placement = inst.placement(request.params)
        if placement is None or not placement.exact:
            continue
        record = (placement.table, placement.key)
        if spec.is_write() or spec.lock is LockMode.EXCLUSIVE:
            writes.add(record)
        else:
            reads.add(record)
    return frozenset(reads - writes), frozenset(writes)


def write_keys(registry, request):
    return registry.get(request.proc).write_keys(request.params)


YCSB = registry_of(YcsbWorkload(n_keys=100))


def test_ycsb_reads_and_for_update_writes():
    request = TxnRequest("ycsb", {"read_keys": [1, 2],
                                  "write_keys": [3, 4]}, home=0)
    reads, writes = estimate_rw_sets(YCSB, request)
    assert reads == {("usertable", 1), ("usertable", 2)}
    # for_update reads conflict like writes (exclusive lock up front)
    assert writes == {("usertable", 3), ("usertable", 4)}
    assert write_keys(YCSB, request) == writes


def test_write_set_wins_on_overlap():
    request = TxnRequest("ycsb", {"read_keys": [5],
                                  "write_keys": [5]}, home=0)
    reads, writes = estimate_rw_sets(YCSB, request)
    assert ("usertable", 5) in writes
    assert ("usertable", 5) not in reads
    assert write_keys(YCSB, request) == {("usertable", 5)}


def test_bank_transfer_estimates_both_accounts_as_writes():
    registry = registry_of(BankWorkload(n_accounts=20))
    request = TxnRequest("transfer",
                         {"src": 3, "dst": 7, "amount": 1.0}, home=0)
    assert write_keys(registry, request) == {("accounts", 3),
                                             ("accounts", 7)}


def test_tpcc_new_order_covers_hot_rows_despite_derived_keys():
    """Param-computable keys (district, stock) land in the write set;
    the order/order-line inserts have derived keys whose hints are
    placement-equivalent — they never mislead the fingerprint into a
    wrong *record* identity, so only exact keys are claimed."""
    registry = registry_of(TpccWorkload(TpccScale(n_warehouses=2),
                                        n_partitions=2))
    request = TxnRequest("new_order", {
        "w_id": 0, "d_id": 1, "c_id": 2, "entry_d": 7,
        "items": [{"supply_w_id": 0, "i_id": 5, "qty": 1},
                  {"supply_w_id": 1, "i_id": 9, "qty": 2}],
    }, home=0)
    reads, writes = estimate_rw_sets(registry, request)
    assert ("warehouse", 0) in reads
    keys = write_keys(registry, request)
    assert keys == writes
    assert ("district", (0, 1)) in keys         # D_NEXT_O_ID increment
    assert ("stock", (0, 5)) in keys and ("stock", (1, 9)) in keys
    # derived-key inserts (order rows) only carry placement hints, not
    # exact record identities — they must not be claimed as records
    assert not any(table == "order" for table, _ in keys)


WORKLOADS = {
    "ycsb": YcsbWorkload(n_keys=50, zipf_exponent=0.9),
    "bank": BankWorkload(n_accounts=20),
    "tpcc": TpccWorkload(TpccScale(n_warehouses=2), n_partitions=2),
}
REGISTRIES = {name: registry_of(w) for name, w in WORKLOADS.items()}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(WORKLOADS)), st.integers(0, 2**32),
       st.integers(0, 1))
def test_compiled_write_keys_equal_the_oracle(name, seed, home):
    request = WORKLOADS[name].next_request(home, random.Random(seed))
    registry = REGISTRIES[name]
    assert write_keys(registry, request) == \
        estimate_rw_sets(registry, request)[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=6),
       st.lists(st.integers(0, 20), max_size=6))
def test_compiled_write_keys_equal_the_oracle_on_any_ycsb_layout(
        read_keys, write_keys_):
    """Every foreach-length pair is its own layout, overlaps included."""
    request = TxnRequest("ycsb", {"read_keys": read_keys,
                                  "write_keys": write_keys_}, home=0)
    assert write_keys(YCSB, request) == estimate_rw_sets(YCSB, request)[1]
