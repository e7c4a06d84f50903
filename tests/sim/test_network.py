"""Unit tests for the RDMA-flavoured network model."""

import dataclasses
import typing

import pytest

from repro.sim import Network, Simulator, network


@pytest.fixture
def make_net(monkeypatch):
    """A fresh network, with the named latency constants patched."""
    def make(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(network, name, value)
        sim = Simulator()
        return sim, Network(sim)
    return make


def test_local_one_sided_pays_only_local_latency(make_net):
    sim, net = make_net(LOCAL_ACCESS_US=0.5)
    done = []
    net.one_sided(0, 0, lambda: 42, lambda v: done.append((v, sim.now)))
    sim.run()
    assert done == [(42, 0.5)]
    assert net.stats.one_sided_local == 1
    assert net.stats.one_sided_remote == 0


def test_remote_one_sided_round_trip_latency(make_net):
    sim, net = make_net(ONE_WAY_US=2.0, VERB_OVERHEAD_US=0.5)
    done = []
    net.one_sided(0, 1, lambda: "ok", lambda v: done.append((v, sim.now)))
    sim.run()
    value, when = done[0]
    assert value == "ok"
    assert when == pytest.approx(2 * 2.0 + 0.5)
    assert net.stats.one_sided_remote == 1


def test_one_sided_op_runs_at_target_arrival_time(make_net):
    sim, net = make_net(ONE_WAY_US=2.0, VERB_OVERHEAD_US=0.5)
    executed_at = []
    net.one_sided(0, 1, lambda: executed_at.append(sim.now), lambda v: None)
    sim.run()
    assert executed_at == [pytest.approx(2.5)]


def test_messages_delivered_fifo_per_channel(make_net):
    sim, net = make_net()
    received = []
    net.register_handler(1, lambda src, p: received.append(p))
    for i in range(20):
        net.send(0, 1, i)
    sim.run()
    assert received == list(range(20))


def test_fifo_holds_across_interleaved_sends(make_net):
    """Messages sent at different times must not overtake each other."""
    sim, net = make_net(ONE_WAY_US=1.0, RPC_OVERHEAD_US=0.0)
    received = []
    net.register_handler(1, lambda src, p: received.append(p))
    net.send(0, 1, "first")
    sim.schedule(0.5, lambda: net.send(0, 1, "second"))
    sim.run()
    assert received == ["first", "second"]


def test_send_to_unregistered_handler_raises(make_net):
    sim, net = make_net()
    with pytest.raises(KeyError):
        net.send(0, 7, "hello")


def test_stats_count_messages(make_net):
    sim, net = make_net()
    net.register_handler(1, lambda src, p: None)
    net.send(0, 1, "a")
    net.send(0, 1, "b")
    sim.run()
    assert net.stats.messages == 2
    assert net.stats.total_remote_ops() == 2


def test_handler_receives_source_id(make_net):
    sim, net = make_net()
    seen = []
    net.register_handler(2, lambda src, p: seen.append(src))
    net.send(5, 2, "x")
    sim.run()
    assert seen == [5]


# -- FIFO monotonicity under same-instant sends ------------------------------

def test_fifo_time_strictly_increases_for_same_instant_sends(make_net):
    """N deliveries requested at the same instant on one channel must get
    strictly increasing timestamps: nothing ever overtakes, and nothing
    ties (ties would leave ordering to the heap's whim)."""
    sim, net = make_net(ONE_WAY_US=1.0, RPC_OVERHEAD_US=0.0)
    times = [net._fifo_time(0, 1, 1.0) for _ in range(50)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_fifo_channels_are_directional_and_independent(make_net):
    sim, net = make_net(ONE_WAY_US=1.0, RPC_OVERHEAD_US=0.0)
    forward = net._fifo_time(0, 1, 1.0)
    backward = net._fifo_time(1, 0, 1.0)
    other = net._fifo_time(0, 2, 1.0)
    # only the (0, 1) channel was bumped; fresh channels get exact times
    assert forward == backward == other == 1.0
    assert net._fifo_time(0, 1, 1.0) > forward


def test_same_instant_one_sided_verbs_execute_in_issue_order(make_net):
    sim, net = make_net(ONE_WAY_US=1.0, VERB_OVERHEAD_US=0.0)
    executed = []
    for i in range(10):
        net.one_sided(0, 1, lambda i=i: executed.append(i), lambda v: None)
    sim.run()
    assert executed == list(range(10))


# -- per-kind byte accounting -------------------------------------------------

def test_send_accounts_bytes_by_kind(make_net):
    sim, net = make_net()
    net.register_handler(1, lambda src, p: None)
    net.send(0, 1, "abcd", kind="greeting")
    net.send(0, 1, "ef", kind="greeting")
    net.send(0, 1, {"k": 1}, kind="other")
    net.send(0, 1, "y" * 10_000, kind="sized", nbytes=10)  # sender's size wins
    sim.run()
    assert net.stats.bytes_by_kind["greeting"] == 6
    assert net.stats.bytes_by_kind["other"] == 8 + 1 + 8
    assert net.stats.bytes_by_kind["sized"] == 10
    assert net.stats.total_bytes() == 6 + 17 + 10


def test_one_sided_accounts_nominal_or_explicit_bytes(make_net):
    from repro.sim.network import VERB_NOMINAL_BYTES

    sim, net = make_net()
    net.one_sided(0, 1, lambda: None, lambda v: None)
    net.one_sided(0, 1, lambda: None, lambda v: None,
                  kind="replicate", nbytes=500)
    sim.run()
    assert net.stats.bytes_by_kind["one_sided"] == VERB_NOMINAL_BYTES
    assert net.stats.bytes_by_kind["replicate"] == 500


def test_approx_payload_bytes_walks_structures():
    from dataclasses import dataclass

    from repro.sim import approx_payload_bytes

    assert approx_payload_bytes(None) == 1
    assert approx_payload_bytes(7) == 8
    assert approx_payload_bytes("hello") == 5
    assert approx_payload_bytes((1, "ab")) == 8 + 8 + 2

    @dataclass
    class Body:
        a: int
        b: str

    assert approx_payload_bytes(Body(1, "xy")) == 8 + 8 + 2
    assert approx_payload_bytes(lambda: None) == 64  # opaque


# -- local vs. wire accounting (regression: local traffic inflated totals) ---


def test_local_sends_never_inflate_wire_totals(make_net):
    """A server talking to itself crosses no wire: the remote counters,
    total_remote_ops, and total_bytes must all stay untouched."""
    sim, net = make_net()
    net.register_handler(0, lambda src, p: None)
    net.one_sided(0, 0, lambda: None, lambda v: None)
    net.send(0, 0, "hello")
    sim.run()
    assert net.stats.one_sided_local == 1
    assert net.stats.messages_local == 1
    assert net.stats.one_sided_remote == 0
    assert net.stats.messages == 0
    assert net.stats.total_remote_ops() == 0
    assert net.stats.total_bytes() == 0
    assert net.stats.bytes_by_kind == {}
    # the traffic is still visible, just on the local books
    assert net.stats.local_bytes_by_kind["one_sided"] > 0
    assert net.stats.local_bytes_by_kind["message"] == 5


def test_mixed_local_and_remote_split_cleanly(make_net):
    sim, net = make_net()
    net.register_handler(0, lambda src, p: None)
    net.register_handler(1, lambda src, p: None)
    net.send(0, 0, "xx", kind="m")       # local
    net.send(0, 1, "yyyy", kind="m")     # wire
    net.one_sided(0, 0, lambda: None, lambda v: None, nbytes=10)
    net.one_sided(0, 1, lambda: None, lambda v: None, nbytes=20)
    sim.run()
    assert net.stats.messages == 1
    assert net.stats.messages_local == 1
    assert net.stats.total_remote_ops() == 2  # one message, one verb
    assert net.stats.bytes_by_kind == {"m": 4, "one_sided": 20}
    assert net.stats.local_bytes_by_kind == {"m": 2, "one_sided": 10}


# -- payload-walk bounds (regression: cyclic payload hung accounting) --------


def test_cyclic_payload_accounting_terminates():
    from repro.sim import approx_payload_bytes

    cyclic = [1, 2]
    cyclic.append(cyclic)
    size = approx_payload_bytes(cyclic)  # must not recurse forever
    assert size > 0

    a, b = {}, {}
    a["peer"], b["peer"] = b, a
    assert approx_payload_bytes(a) > 0


def test_high_fanout_cycles_and_shared_dags_walk_in_linear_time():
    """A cycle with fanout >= 3 (or a deeply shared DAG) must cost one
    visit per distinct container, not branching^depth work."""
    import time

    from repro.sim import approx_payload_bytes

    wide_cycle = []
    wide_cycle.extend([wide_cycle] * 50)
    shared = [0]
    for _ in range(30):
        shared = [shared, shared, shared]  # 3^30 paths, 31 containers

    start = time.perf_counter()
    assert approx_payload_bytes(wide_cycle) > 0
    assert approx_payload_bytes(shared) > 0
    assert time.perf_counter() - start < 0.5


def test_deeply_nested_payload_gets_flat_fallback():
    from repro.sim import approx_payload_bytes
    from repro.sim.network import (MESSAGE_NOMINAL_BYTES,
                                   PAYLOAD_WALK_MAX_DEPTH)

    nested = "leaf"
    for _ in range(PAYLOAD_WALK_MAX_DEPTH * 4):
        nested = [nested]
    size = approx_payload_bytes(nested)
    # capped: walked levels plus one flat charge, not 64 levels deep
    assert size == 8 * PAYLOAD_WALK_MAX_DEPTH + MESSAGE_NOMINAL_BYTES


def test_cyclic_payload_send_terminates_and_accounts(make_net):
    sim, net = make_net()
    net.register_handler(1, lambda src, p: None)
    cyclic = {"next": None}
    cyclic["next"] = cyclic
    net.send(0, 1, cyclic, kind="cyclic")
    sim.run()
    assert net.stats.bytes_by_kind["cyclic"] > 0


# -- the latency-only model: payload size never moves a completion time -------

def test_local_traffic_never_pays_bandwidth(make_net):
    sim, net = make_net(LOCAL_ACCESS_US=0.5)
    done = []
    net.one_sided(0, 0, lambda: 1, lambda v: done.append(sim.now),
                  nbytes=1_000_000)
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_bandwidth_none_is_bit_identical_to_seed_model(make_net):
    sim, net = make_net(ONE_WAY_US=1.7, VERB_OVERHEAD_US=0.3)
    done = []
    net.one_sided(0, 1, lambda: 1, lambda v: done.append(sim.now),
                  nbytes=4096)
    sim.run()
    # two one-way trips plus the verb overhead, at the default config
    assert done == [pytest.approx(2 * 1.7 + 0.3)]


# -- per-executor traffic breakdown (Fig.-style bytes-by-phase) ---------------


def test_per_server_books_track_issuing_executor(make_net):
    sim, net = make_net()
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="lock_read",
                  nbytes=32)
    net.one_sided(2, 1, lambda: 1, lambda v: None, kind="commit",
                  nbytes=48)
    net.one_sided(0, 0, lambda: 1, lambda v: None, kind="lock_read",
                  nbytes=32)  # local: never in the wire books
    sim.run()
    assert net.stats.bytes_by_server_kind[0] == {"lock_read": 32}
    assert net.stats.bytes_by_server_kind[2] == {"commit": 48}
    # per-server books always sum to the cluster-wide wire book
    total = {}
    for per in net.stats.bytes_by_server_kind.values():
        for kind, nbytes in per.items():
            total[kind] = total.get(kind, 0) + nbytes
    assert total == net.stats.bytes_by_kind


def test_bytes_by_phase_folds_kinds_into_txn_phases(make_net):
    sim, net = make_net()
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="lock_read",
                  nbytes=32)
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="validate_write",
                  nbytes=16)
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="replicate",
                  nbytes=100)
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="commit",
                  nbytes=24)
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="release",
                  nbytes=8)
    net.one_sided(0, 1, lambda: 1, lambda v: None, kind="mystery",
                  nbytes=5)
    sim.run()
    assert net.stats.bytes_by_phase() == {
        "lock": 32, "validate": 16, "replicate": 100,
        "commit": 24 + 8, "other": 5}
    assert net.stats.bytes_by_server_phase()[0]["commit"] == 32


def test_merge_from_folds_per_server_books():
    from repro._stats import fold
    from repro.sim import NetworkStats
    a = NetworkStats()
    b = NetworkStats()
    a.record_one_sided("lock_read", 32, remote=True, server=1)
    b.record_one_sided("lock_read", 10, remote=True, server=1)
    b.record_one_sided("commit", 7, remote=True, server=2)
    fold(a, b)
    assert a.bytes_by_server_kind == {1: {"lock_read": 42},
                                      2: {"commit": 7}}


# -- the type-dispatched walk against the walk it replaced ------------------


def _reference_payload_bytes(obj, _depth=0, _seen=None):
    """``approx_payload_bytes`` as it was before the type-dispatched
    rewrite (an isinstance ladder re-run on every node); kept here as
    the oracle the rewrite must match byte for byte."""
    import dataclasses

    from repro.sim.network import (MESSAGE_NOMINAL_BYTES,
                                   PAYLOAD_WALK_MAX_DEPTH)
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if _depth >= PAYLOAD_WALK_MAX_DEPTH:
        return MESSAGE_NOMINAL_BYTES
    if isinstance(obj, (dict, list, tuple, set, frozenset)):
        walk_items = True
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        walk_items = False
    else:
        return 64
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 8
    _seen.add(id(obj))
    child = _depth + 1
    if not walk_items:
        return 8 + sum(
            _reference_payload_bytes(getattr(obj, f.name), child, _seen)
            for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return 8 + sum(_reference_payload_bytes(k, child, _seen)
                       + _reference_payload_bytes(v, child, _seen)
                       for k, v in obj.items())
    return 8 + sum(_reference_payload_bytes(item, child, _seen)
                   for item in obj)


def _random_payloads(seed, count):
    """Seeded nested payloads over everything the walk distinguishes."""
    import collections
    import dataclasses
    import enum
    import random

    from repro.sim.network import PAYLOAD_WALK_MAX_DEPTH

    class Verb(enum.IntEnum):
        READ = 1
        WRITE = 2

    Point = collections.namedtuple("Point", "x y")

    @dataclasses.dataclass
    class Body:
        txn: int
        writes: object
        note: str = "n"
        kinds: typing.ClassVar[int] = 3     # not a field: never walked

    @dataclasses.dataclass(frozen=True)
    class Empty:
        pass

    class Counted(dict):                    # subclass of a container
        pass

    class Handle:                           # opaque
        pass

    rng = random.Random(seed)
    pool = []                               # shared sub-structures

    def scalar():
        return rng.choice([
            None, True, False, rng.randrange(-5, 10**12), rng.random(),
            "s" * rng.randrange(12), b"b" * rng.randrange(12),
            Verb.WRITE, Handle(), len, Body, Empty()])

    def hashable(depth):
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice([rng.randrange(100), "k%d" % rng.randrange(9),
                               True, None, Verb.READ, 2.5])
        return tuple(hashable(depth - 1) for _ in range(rng.randrange(3)))

    def node(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            return scalar()
        if pool and roll < 0.35:
            return rng.choice(pool)
        n = rng.randrange(4)
        kids = [node(depth - 1) for _ in range(n)]
        made = rng.choice([
            lambda: kids, lambda: tuple(kids),
            lambda: {hashable(2): kid for kid in kids},
            lambda: Counted((i, kid) for i, kid in enumerate(kids)),
            lambda: {hashable(2) for _ in kids},
            lambda: frozenset(hashable(2) for _ in kids),
            lambda: Body(rng.randrange(99), kids),
            lambda: Point(kids, node(depth - 1)),
            lambda: _ReplicaWrite("update", "t", hashable(2),
                                  {"f%d" % i: kid
                                   for i, kid in enumerate(kids)}),
        ])()
        if rng.random() < 0.3:
            pool.append(made)
        return made

    for i in range(count):
        payload = node(rng.randrange(1, 7))
        if i % 10 == 0:                     # a cycle through a list
            ring = [payload]
            ring.append({"back": ring})
            payload = ring
        if i % 25 == 0:                     # deeper than the walk goes
            for _ in range(PAYLOAD_WALK_MAX_DEPTH + rng.randrange(6)):
                payload = rng.choice([[payload, 7], (payload,),
                                      {"d": payload}, Body(1, payload)])
        yield payload


def test_payload_walk_matches_the_walk_it_replaced():
    from repro.sim import approx_payload_bytes
    sizes = set()
    for payload in _random_payloads(seed=20260927, count=2500):
        want = _reference_payload_bytes(payload)
        assert approx_payload_bytes(payload) == want
        assert approx_payload_bytes(payload) == want  # classes now cached
        sizes.add(want)
    assert len(sizes) > 300     # the generator really varies


# -- shared and cyclic structure, drawn by hypothesis -------------------------


@dataclasses.dataclass
class _Node:
    key: object
    kids: object
    note: str = ""


def _payloads():
    """Nested payloads that share and close cycles over their own
    containers: every list / dict / dataclass may later receive a
    reference to any container made before it, itself included."""
    from hypothesis import strategies as st

    leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(allow_nan=False), st.text(max_size=6),
                       st.binary(max_size=6), st.just(()),
                       st.just(len))
    keys = st.one_of(st.integers(), st.text(max_size=4),
                     st.tuples(st.integers(), st.text(max_size=3)))
    tree = st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(keys, kids, max_size=4),
            st.builds(_Node, keys, st.lists(kids, max_size=3),
                      st.text(max_size=4))),
        max_leaves=40)

    @st.composite
    def shared(draw):
        root = draw(tree)
        made = []

        def collect(obj):
            if isinstance(obj, (list, dict, _Node)):
                if any(obj is seen for seen in made):
                    return
                made.append(obj)
            if isinstance(obj, (list, tuple)):
                children = obj
            elif isinstance(obj, dict):
                children = obj.values()
            elif isinstance(obj, _Node):
                children = (obj.key, obj.kids)
            else:
                return
            for child in list(children):
                collect(child)
        collect(root)
        for _ in range(draw(st.integers(0, 4))):
            if not made:
                break
            target = draw(st.sampled_from(made))
            ref = draw(st.sampled_from(made))
            if isinstance(target, list):
                target.append(ref)
            elif isinstance(target, dict):
                target[draw(keys)] = ref
            else:
                target.kids = [target.kids, ref]
        # deeper than the walk goes: a chain of wrappers above the root
        for _ in range(draw(st.integers(0, 20))):
            root = draw(st.sampled_from(
                [[root], (root, 1), {"d": root}, _Node(0, root)]))
        return root
    return shared()


def test_walk_matches_the_reference_on_shared_and_cyclic_payloads():
    from hypothesis import given, settings

    from repro.sim import approx_payload_bytes

    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads())
    def check(payload):
        assert approx_payload_bytes(payload) == \
            _reference_payload_bytes(payload)
    check()


# -- the one write shape and the tuple messages, against what they replaced ---
#
# Test-local copies of the four frozen dataclasses the tuple write and the
# ``NamedTuple`` messages replaced.  The walk must charge the new shapes
# exactly what it charged these, or the sim's byte accounting moves.


@dataclasses.dataclass(frozen=True)
class _ReplicaWrite:
    kind: str
    table: str
    key: object
    values: object = None


@dataclasses.dataclass(frozen=True)
class _InnerReplicate:
    txn_id: int
    partition: int
    writes: tuple
    coordinator: int


@dataclasses.dataclass(frozen=True)
class _InnerReplicaAck:
    txn_id: int
    replica_server: int


@dataclasses.dataclass(frozen=True)
class _InnerRequest:
    txn_id: int
    proc: str
    params: object
    inner_names: tuple
    ctx: object
    coordinator: int


WRITE_FIELDS = ("kind", "table", "key", "values")
"""The one write shape's positions, as the replaced dataclass named them."""


def _write_sets():
    """Write-sets of every kind over int, str and tuple keys, whose
    ``values`` dicts nest and are shared between writes (and keys too)."""
    from hypothesis import strategies as st

    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=False), st.text(max_size=8))
    names = st.text(min_size=1, max_size=6)
    flat = st.dictionaries(names, scalars, max_size=4)
    nested = st.dictionaries(names, st.one_of(scalars, flat), max_size=4)
    keys = st.one_of(st.integers(), st.text(min_size=1, max_size=6),
                     st.tuples(st.integers(), st.text(max_size=3)),
                     st.tuples(st.integers(), st.integers(), st.integers()))

    @st.composite
    def write_set(draw):
        pool = draw(st.lists(nested, min_size=1, max_size=4))
        shared = st.sampled_from(pool)
        writes = []
        for _ in range(draw(st.integers(0, 14))):
            kind = draw(st.sampled_from(["update", "insert", "delete"]))
            table = draw(st.sampled_from(["warehouse", "district",
                                          "order_line", "t"]))
            key = (writes[-1][2] if writes and draw(st.booleans())
                   else draw(keys))
            values = None if kind == "delete" else draw(st.one_of(
                nested, shared, shared.map(lambda d: {"nested": d})))
            writes.append((kind, table, key, values))
        return writes, pool
    return write_set()


def _same_message(new_type, old, rpc, **own):
    """Build ``new_type`` from ``old``'s fields by name (``own`` swaps in
    the new shapes of some), and check it has exactly those fields, in
    that order, and costs the same bytes."""
    from repro.sim import approx_payload_bytes

    fields = tuple(f.name for f in dataclasses.fields(old))
    new = new_type(**{name: getattr(old, name) for name in fields} | own)
    assert new._fields == fields
    assert approx_payload_bytes((rpc, new)) == \
        approx_payload_bytes((rpc, old))


def test_tuple_writes_and_messages_cost_what_the_dataclasses_did():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.core.chiller import (RPC_ACK, RPC_INNER, RPC_REPLICATE,
                                    InnerRequest)
    from repro.replication import InnerReplicaAck, InnerReplicate
    from repro.sim import approx_payload_bytes

    ints = st.integers(0, 2 ** 40)
    names = st.lists(st.text(min_size=1, max_size=6), min_size=1,
                     max_size=6).map(tuple)

    @settings(max_examples=200, deadline=None)
    @given(drawn=_write_sets(), txn=ints, server=ints, coordinator=ints,
           proc=st.text(min_size=1, max_size=10), names=names,
           params=st.dictionaries(st.text(max_size=4), ints, max_size=4))
    def check(drawn, txn, server, coordinator, proc, names, params):
        writes, pool = drawn
        old_writes = tuple(_ReplicaWrite(**dict(zip(WRITE_FIELDS, write)))
                           for write in writes)
        assert [tuple(getattr(old, name) for name in WRITE_FIELDS)
                for old in old_writes] == writes
        # the executor's replicate message: the write-set itself
        assert approx_payload_bytes(tuple(writes)) == \
            approx_payload_bytes(old_writes)
        # the inner host's: the same writes inside one message
        _same_message(InnerReplicate, _InnerReplicate(
            txn, server, old_writes, coordinator), RPC_REPLICATE,
            writes=tuple(writes))
        _same_message(InnerReplicaAck, _InnerReplicaAck(txn, server),
                      RPC_ACK)
        ctx = {name: pool[i % len(pool)] for i, name in enumerate(names)}
        _same_message(InnerRequest, _InnerRequest(
            txn, proc, params, names, ctx, coordinator), RPC_INNER)
    check()


# -- the write-set sizer, against the walk it stands in for -------------------


def _odd_write_sets():
    """``_write_sets`` with some keys and values swapped for anything the
    walk distinguishes (bools, floats, ``None``, str, bytes, opaque
    objects, nested and cyclic containers, dataclasses, chains deeper
    than the walk goes), some writes repeated by reference, and some
    writes that are not tuples."""
    from hypothesis import strategies as st

    odd = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                    st.text(max_size=6), st.binary(max_size=6),
                    st.just(len), st.builds(object), _payloads())

    @st.composite
    def write_set(draw):
        writes, _pool = draw(_write_sets())
        out = []
        for kind, table, key, values in writes:
            if draw(st.integers(0, 3)) == 0:
                key = draw(odd)
            if draw(st.integers(0, 3)) == 0:
                values = draw(odd)
            write = draw(st.sampled_from(
                [tuple, tuple, tuple, list,
                 lambda fields: _Node(fields[2], list(fields))]))(
                (kind, table, key, values))
            out.append(write)
            if draw(st.integers(0, 5)) == 0:
                out.append(out[draw(st.integers(0, len(out) - 1))])
        return tuple(out)
    return write_set()


def test_the_write_set_sizer_is_the_walk_at_every_depth():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.core.chiller import (_ACK_BYTES, _REPLICATE_ENVELOPE_BYTES,
                                    RPC_ACK, RPC_REPLICATE)
    from repro.replication import InnerReplicaAck, InnerReplicate
    from repro.sim import approx_payload_bytes, write_set_bytes
    from repro.sim.network import PAYLOAD_WALK_MAX_DEPTH

    ints = st.integers(0, 2 ** 40)

    @settings(max_examples=300, deadline=None)
    @given(writes=_odd_write_sets(), txn=ints, server=ints,
           coordinator=ints)
    def check(writes, txn, server, coordinator):
        # the executor's call site ships the write set itself ...
        assert write_set_bytes(writes) == approx_payload_bytes(writes)
        # ... the inner host's sits two levels down in its message
        message = (RPC_REPLICATE,
                   InnerReplicate(txn, server, writes, coordinator))
        assert (_REPLICATE_ENVELOPE_BYTES + write_set_bytes(writes, 2)
                == approx_payload_bytes(message))
        assert _ACK_BYTES == approx_payload_bytes(
            (RPC_ACK, InnerReplicaAck(txn, server)))
        # and at every depth, the cap and past it included
        wrapped = writes
        for depth in range(1, PAYLOAD_WALK_MAX_DEPTH + 3):
            wrapped = [wrapped]
            assert (approx_payload_bytes(wrapped)
                    == 8 * min(depth, PAYLOAD_WALK_MAX_DEPTH)
                    + write_set_bytes(writes, depth))
    check()


class _Name(str):
    """A str subclass: the walk sizes it as a str, the bulk pass refuses it."""


class _Count(int):
    """An int subclass: the walk sizes it as an int, the bulk pass refuses
    it."""


def _commit_shaped_write_sets():
    """Write sets of 0-40 writes, about half of them the commit path's
    one shape all through (``(str, str, tuple of int, dict of str ->
    scalar)``, no container shared), the rest with about a quarter of
    their writes bent away from it, all one way or each any way: a str
    or int subclass, a bool or int subclass in a key, a dict key that is
    no str, nested or cyclic values, a key tuple, a values dict or a
    whole write repeated by reference, the empty key tuple, a write that
    is a list or has five fields, a key that is no tuple."""
    from hypothesis import strategies as st

    scalars = st.one_of(st.none(), st.booleans(),
                        st.integers(-2 ** 40, 2 ** 40),
                        st.floats(allow_nan=False), st.text(max_size=8))
    names = st.text(max_size=8)

    @st.composite
    def write_set(draw):
        # -1: the commit shape all through; 0-15: some writes bent that
        # one way (so the bulk pass meets each bend alone); 16: any way
        bend = draw(st.one_of(st.just(-1), st.integers(0, 16)))
        writes = []
        for _ in range(draw(st.integers(0, 40))):
            kind = draw(st.sampled_from(["update", "insert", "delete"]))
            table = draw(st.sampled_from(["stock", "order_line", "t", ""]))
            key = tuple(draw(st.lists(st.integers(0, 2 ** 31), min_size=1,
                                      max_size=3)))
            values = draw(st.dictionaries(names, scalars, max_size=6))
            how = -1 if bend < 0 or draw(st.integers(0, 3)) else (
                bend if bend < 16 else draw(st.integers(0, 15)))
            other = writes[draw(st.integers(0, len(writes) - 1))] \
                if writes else None
            if how == 0:
                kind = _Name(kind)
            elif how == 1:
                key += (draw(st.booleans()),)
            elif how == 2:
                key += (_Count(draw(st.integers())),)
            elif how == 3:
                values[_Name("n")] = draw(scalars)
            elif how == 4:
                values[draw(st.integers())] = draw(scalars)
            elif how == 5:
                values["c"] = _Count(draw(st.integers()))
            elif how == 6:
                values["s"] = _Name(draw(st.text(max_size=4)))
            elif how == 7:
                values["nested"] = draw(st.lists(
                    st.dictionaries(names, scalars, max_size=2), max_size=2))
            elif how == 8:
                values["self"] = values
            elif how == 9 and other is not None:
                key = other[2]
            elif how == 10 and other is not None:
                values = other[3]
            elif how == 11 and other is not None:
                writes.append(other)
                continue
            elif how == 12:
                writes.append([kind, table, key, values])
                continue
            elif how == 13:
                key = draw(st.text(max_size=4))
            elif how == 14:
                writes.append((kind, table, key, values, None))
                continue
            elif how == 15:
                key = ()            # one object, however often it is made
            writes.append((kind, table, key, values))
        return tuple(writes)
    return write_set()


def test_the_write_set_sizer_is_the_walk_for_any_write_set():
    """Bulk or walked, the sizer charges every write set of up to 40
    writes exactly what the walk does, at every depth up to past the
    cap."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.sim import write_set_bytes
    from repro.sim.network import PAYLOAD_WALK_MAX_DEPTH, _walk

    depths = st.one_of(st.just(0), st.just(2), st.integers(
        PAYLOAD_WALK_MAX_DEPTH - 4, PAYLOAD_WALK_MAX_DEPTH + 1))

    def five(last):
        """Four commit-shaped writes, then ``last``."""
        return tuple(("update", "stock", (0, i), {"s_ytd": 1.5, "s": "ab"})
                     for i in range(4)) + (last,)

    shared = {"s_quantity": 3}
    key = (1, 2)
    # each bend alone in a set the bulk pass would otherwise take
    bent = [five(("update", "t", (1, True), {})),
            five(("update", "t", (1, _Count(2)), {})),
            five((_Name("update"), "t", (1,), {})),
            five(("update", "t", (1,), {7: 1})),
            five(("update", "t", (1,), {_Name("n"): 1})),
            five(("update", "t", (1,), {"c": _Count(5)})),
            five(("update", "t", (1,), {"s": _Name("abc")})),
            five(("update", "t", (1,), {"n": [1, {"x": None}]})),
            five(("update", "t", (1,), {"n": (1, 2)})),
            five(("update", "t", (1,), {"b": b"xyz"})),
            five(("update", "t", "k", {})),
            five(("update", "t", (1,), {}, None)),
            five(["update", "t", (1,), {}]),
            (("update", "t", key, {}),) * 5,
            tuple(("update", "t", key, {"i": i}) for i in range(5)),
            tuple(("update", "t", (i,), shared) for i in range(5))]

    @settings(max_examples=400, deadline=None)
    @given(writes=st.one_of(_commit_shaped_write_sets(),
                            st.sampled_from(bent)),
           depth=depths)
    def check(writes, depth):
        assert write_set_bytes(writes, depth) == _walk(writes, depth, set())
    check()
    for writes in bent:
        assert write_set_bytes(writes) == _walk(writes, 0, set())


class _NoShapes(dict):
    def get(self, cls, default=None):
        raise AssertionError(f"walked a {cls.__name__}")


def test_a_commit_shaped_set_of_five_writes_is_sized_in_bulk(monkeypatch):
    """The bulk pass sizes the commit path's shape without the walk's
    per-class table; four writes or a shared values dict still walk."""
    from repro.sim import write_set_bytes

    def writes(n, values=None):
        return tuple(("update", "stock", (0, i),
                      {"s_quantity": 42, "s_ytd": 8.5, "s_dist": "abc",
                       "s_flag": True, "s_note": None}
                      if values is None else values)
                     for i in range(n))

    expected = {n: write_set_bytes(writes(n)) for n in (4, 5, 33)}
    shared = writes(5, {"s_quantity": 1})
    expected_shared = write_set_bytes(shared)
    monkeypatch.setattr(network, "_SHAPE_OF", _NoShapes())
    assert write_set_bytes(writes(5)) == expected[5]
    assert write_set_bytes(writes(33)) == expected[33]
    assert expected[33] == 8 + 33 * (8 + 6 + 5 + 8 + 16 + 8 + 10 + 8
                                      + 5 + 8 + 6 + 3 + 6 + 1 + 6 + 1)
    with pytest.raises(AssertionError, match="walked"):
        write_set_bytes(writes(4))
    with pytest.raises(AssertionError, match="walked"):
        write_set_bytes(shared)
    assert expected_shared == 8 + 5 * (8 + 6 + 5 + 8 + 16) + 8 + 10 + 8 \
        + 4 * 8
