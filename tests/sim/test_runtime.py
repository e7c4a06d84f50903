"""Tests for the EffectRuntime seam and its doorbell-batching path."""

import pytest

from repro.sim import (All, Cluster, Compute, EffectRuntime, Round, Rpc,
                       Sleep, network)


@pytest.fixture(autouse=True)
def round_latencies(monkeypatch):
    """Round network constants, so the timings below add up by hand."""
    for name, value in (("LOCAL_ACCESS_US", 0.1), ("ONE_WAY_US", 1.0),
                        ("VERB_OVERHEAD_US", 0.3), ("RPC_OVERHEAD_US", 0.0),
                        ("BATCHED_VERB_US", 0.1)):
        monkeypatch.setattr(network, name, value)


# -- a server's engine is its effect runtime ---------------------------------

def test_cluster_engine_is_the_effect_runtime():
    cluster = Cluster(1)
    engine = cluster.engine(0)
    assert isinstance(engine, EffectRuntime)
    assert engine is cluster.server(0).engine
    assert engine.active_tasks == 0


def test_custom_runtime_can_be_injected():
    from repro.sim import Network, Simulator

    performed = []

    class TracingRuntime(EffectRuntime):
        def perform(self, effect, cont):
            performed.append(type(effect).__name__)
            super().perform(effect, cont)

    sim = Simulator()
    net = Network(sim)
    engine = TracingRuntime(sim, net, 0)

    def txn():
        yield Compute(1.0)
        yield Round([(0, lambda: None)])

    engine.spawn(txn())
    sim.run()
    assert performed == ["Compute", "Round"]


# -- doorbell batching: counters and completion times ------------------------

def test_same_destination_round_costs_one_fused_round_trip():
    """The acceptance property: a group of N verbs to one remote server
    completes in one chained round trip and counts as ONE round trip."""
    cluster = Cluster(2, doorbell_batching=True)
    out = []

    def txn():
        results = yield Round([(1, lambda: "a"), (1, lambda: "b"),
                               (1, lambda: "c")])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == ["a", "b", "c"]
    # 2*one_way + verb_overhead + 2 extra chained verbs, exactly once
    assert when == pytest.approx(2 * 1.0 + 0.3 + 2 * 0.1)
    stats = cluster.network.stats
    assert stats.one_sided_batches == 1
    assert stats.one_sided_batched_verbs == 3
    assert stats.one_sided_remote == 0
    assert stats.total_remote_ops() == 1


def test_batching_off_keeps_per_verb_round_trips():
    cluster = Cluster(2)
    out = []

    def txn():
        results = yield All([Round([(1, lambda: "a")]),
                             Round([(1, lambda: "b")]),
                             Round([(1, lambda: "c")])])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == [["a"], ["b"], ["c"]]
    # the verbs overlap: one plain round trip, 2*one_way + verb_overhead
    assert when == pytest.approx(2 * 1.0 + 0.3, abs=1e-6)
    stats = cluster.network.stats
    assert stats.one_sided_batches == 0
    assert stats.one_sided_remote == 3


def test_explicit_batched_effect_fuses_when_enabled():
    cluster = Cluster(2, doorbell_batching=True)
    out = []

    def txn():
        results = yield Round([(1, lambda: 1), (1, lambda: 2)])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == [1, 2]
    assert when == pytest.approx(2 * 1.0 + 0.3 + 0.1)
    assert cluster.network.stats.one_sided_batches == 1


def test_explicit_batched_effect_falls_back_when_disabled():
    """With the knob off a Round behaves exactly like its verbs issued
    one by one — per-verb round trips, same results."""
    cluster = Cluster(2)
    out = []

    def txn():
        results = yield Round([(1, lambda: 1), (1, lambda: 2)])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == [1, 2]
    # the verbs overlap: one plain round trip, 2*one_way + verb_overhead
    assert when == pytest.approx(2 * 1.0 + 0.3, abs=1e-6)
    stats = cluster.network.stats
    assert stats.one_sided_batches == 0
    assert stats.one_sided_remote == 2


def test_local_verbs_never_batch():
    """Doorbell batching is a NIC concept; local groups stay plain
    memory accesses even with the knob on."""
    cluster = Cluster(2, doorbell_batching=True)
    out = []

    def txn():
        results = yield Round([(0, lambda: "x"), (0, lambda: "y")])
        out.append((results, cluster.sim.now))

    cluster.engine(0).spawn(txn())
    cluster.run()
    results, when = out[0]
    assert results == ["x", "y"]
    assert when == pytest.approx(network.LOCAL_ACCESS_US)
    stats = cluster.network.stats
    assert stats.one_sided_local == 2
    assert stats.one_sided_batches == 0


def test_single_verb_group_is_not_fused():
    cluster = Cluster(2, doorbell_batching=True)
    out = []

    def txn():
        results = yield Round([(1, lambda: 9)])
        out.append(results)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [[9]]
    stats = cluster.network.stats
    assert stats.one_sided_batches == 0
    assert stats.one_sided_remote == 1


def test_mixed_all_batches_only_same_destination_remotes():
    """Inside an All, local verbs, lone remotes, and RPCs keep their own
    paths; only the multi-verb remote group fuses — and two verbs to one
    server outside a group stay two verbs.  Result order is preserved."""
    cluster = Cluster(3, doorbell_batching=True)
    out = []

    def handler(src, request):
        return request + 100
        yield  # pragma: no cover - generator marker

    cluster.engine(2).set_rpc_handler(handler)

    def txn():
        results = yield All([
            Round([(1, lambda: "r1a"),          # fused pair -> server 1
                   (1, lambda: "r1b")]),
            Round([(0, lambda: "local")]),      # local, never batched
            Rpc(2, 5),                           # messages are not verbs
            Round([(2, lambda: "lone")]),       # single verb -> no fuse
            Round([(2, lambda: "lone2")]),      # another round -> no fuse
        ])
        out.append(results)

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [[["r1a", "r1b"], ["local"], 105, ["lone"], ["lone2"]]]
    stats = cluster.network.stats
    assert stats.one_sided_batches == 1
    assert stats.one_sided_batched_verbs == 2
    assert stats.one_sided_remote == 2  # the two verbs to server 2
    assert stats.one_sided_local == 1


def test_batch_ops_execute_at_target_arrival_in_chain_order():
    cluster = Cluster(2, doorbell_batching=True)
    executed = []

    def txn():
        yield Round([(1, lambda: executed.append(("a", cluster.sim.now))),
                     (1, lambda: executed.append(("b", cluster.sim.now)))])

    cluster.engine(0).spawn(txn())
    cluster.run()
    arrival = (network.ONE_WAY_US + network.VERB_OVERHEAD_US
               + network.BATCHED_VERB_US)
    assert [name for name, _ in executed] == ["a", "b"]
    for _, when in executed:
        assert when == pytest.approx(arrival)


def test_network_one_sided_batch_rejects_degenerate_chains():
    from repro.sim import Network, Simulator

    sim = Simulator()
    net = Network(sim, doorbell_batching=True)
    with pytest.raises(ValueError):
        net.one_sided_batch(0, 0, [lambda: 1, lambda: 2], lambda r: None)
    with pytest.raises(ValueError):
        net.one_sided_batch(0, 1, [lambda: 1], lambda r: None)


# -- dispatch table ----------------------------------------------------------
#
# perform() routes effects through a per-class dispatch table instead of
# an isinstance ladder.  The table must stay semantically equivalent:
# effect *subclasses* dispatch like their base (resolved via the MRO and
# cached), unknown objects fail loudly, and subclass overrides of the
# underlying do_* / send_rpc hooks still take effect (the table binds
# class-level functions, never instance methods).


def test_effect_subclass_dispatches_like_its_base():
    class TracedCompute(Compute):
        pass

    cluster = Cluster(1)
    out = []

    def txn():
        yield TracedCompute(1.0)
        out.append("ran")

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == ["ran"]

    from repro.sim.runtime import _EFFECT_DISPATCH
    assert TracedCompute in _EFFECT_DISPATCH  # MRO walk cached the type


def test_unknown_effect_fails_loudly():
    cluster = Cluster(1)

    def txn():
        yield object()

    with pytest.raises(TypeError, match="unknown effect"):
        cluster.engine(0).spawn(txn())
        cluster.run()


def test_dispatch_table_respects_send_rpc_overrides():
    """Rpc must dispatch through self.send_rpc so subclass overrides
    (the mp runtime's token-routing send_rpc) keep working."""
    from repro.sim import Network, Simulator

    seen = []

    class RoutedRuntime(EffectRuntime):
        def send_rpc(self, effect, cont):
            seen.append(effect.target)
            super().send_rpc(effect, cont)

    sim = Simulator()
    net = Network(sim)
    engine = RoutedRuntime(sim, net, 0)

    def rpc_handler(src, body):
        return "pong"
        yield  # pragma: no cover - makes this a generator function

    engine.set_rpc_handler(rpc_handler)

    def txn():
        yield Rpc(0, ("ping", None))

    engine.spawn(txn())
    sim.run()
    assert seen == [0]


# -- a NaN never reaches the clock -------------------------------------------

@pytest.mark.parametrize("effect", [Sleep(float("nan")),
                                    Compute(float("nan"))],
                         ids=["sleep", "compute"])
def test_nan_effect_is_refused_before_it_reaches_the_clock(effect):
    cluster = Cluster(1)

    def txn():
        yield effect

    with pytest.raises(ValueError):
        cluster.engine(0).spawn(txn())
    cluster.run()
    assert cluster.sim.now == 0.0
    assert cluster.engine(0).core.busy_until == 0.0


def test_nan_message_delay_is_refused(monkeypatch):
    monkeypatch.setattr(network, "ONE_WAY_US", float("nan"))
    cluster = Cluster(2)

    def handler(src, body):
        return "pong"
        yield  # pragma: no cover - makes this a generator function

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        yield Rpc(1, ("ping", None))

    with pytest.raises(ValueError):
        cluster.engine(0).spawn(txn())
    assert cluster.sim.events_fired == 0
