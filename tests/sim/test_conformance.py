"""Effect-semantics conformance: both runtimes, one meaning.

Every test here runs the same effect program against the simulated
backend (`Cluster` / `EffectRuntime`) and the in-process wall-clock
backend (`WorkerCluster` / `WallClockRuntime`, one worker owning every
server) and asserts identical results and ordering guarantees.  What
the backends may differ on is *cost* (simulated microseconds vs. wall
time); what they must never differ on is what an effect returns, the order of an
``All``'s results, per-channel FIFO, or RPC plumbing.
"""

import pytest

from repro.sim import (All, Await, Cluster, Compute, Round, Rpc, Signal,
                       Sleep)
from repro.sim import WorkerCluster as AioCluster


@pytest.fixture(params=["sim", "aio"])
def make_cluster(request):
    def make(n=3, doorbell_batching=False):
        if request.param == "sim":
            return Cluster(n, doorbell_batching)
        return AioCluster(n, doorbell_batching)
    return make


# -- primitives --------------------------------------------------------------


def test_compute_resumes_with_none(make_cluster, run_program):
    cluster = make_cluster()

    def txn():
        result = yield Compute(1.0)
        return result

    assert run_program(cluster, txn()) is None


def test_one_sided_returns_op_value_local_and_remote(make_cluster,
                                                     run_program):
    cluster = make_cluster()

    def txn():
        [local] = yield Round([(0, lambda: "local-value")])
        [remote] = yield Round([(2, lambda: {"k": 41})])
        return (local, remote)

    assert run_program(cluster, txn()) == ("local-value", {"k": 41})


def test_sleep_resumes_and_longer_sleep_finishes_later(make_cluster):
    cluster = make_cluster()
    finished = []

    def sleeper(name, delay):
        yield Sleep(delay)
        finished.append(name)

    # wall-clock backends need real separation; 1ms vs 40ms is ample
    cluster.engine(0).spawn(sleeper("long", 40_000.0))
    cluster.engine(0).spawn(sleeper("short", 1_000.0))
    cluster.run()
    assert finished == ["short", "long"]


# -- All fan-out/fan-in ------------------------------------------------------


def test_all_preserves_result_order(make_cluster, run_program):
    cluster = make_cluster()

    def handler(src, request):
        return request * 10
        yield  # pragma: no cover - generator marker

    cluster.engine(2).set_rpc_handler(handler)

    def txn():
        results = yield All([
            Round([(1, lambda: "a")]),
            Compute(0.5),
            Rpc(2, 7),
            Round([(0, lambda: "local")]),
            Round([(1, lambda: "b")]),
        ])
        return results

    assert run_program(cluster, txn()) == [["a"], None, 70, ["local"],
                                           ["b"]]


def test_empty_all_resumes_with_empty_list(make_cluster, run_program):
    cluster = make_cluster()

    def txn():
        results = yield All([])
        return results

    assert run_program(cluster, txn()) == []


def test_nested_all(make_cluster, run_program):
    cluster = make_cluster()

    def txn():
        results = yield All([
            All([Round([(1, lambda: 1)]), Round([(2, lambda: 2)])]),
            Round([(1, lambda: 3)]),
        ])
        return results

    assert run_program(cluster, txn()) == [[[1], [2]], [3]]


@pytest.mark.parametrize("doorbell_batching", [False, True],
                         ids=["plain", "doorbell"])
def test_batched_one_sided_returns_values_in_op_order(make_cluster,
                                                      doorbell_batching,
                                                      run_program):
    cluster = make_cluster(doorbell_batching=doorbell_batching)

    def txn():
        remote = yield Round([(1, lambda: "x"), (1, lambda: "y"),
                              (1, lambda: "z")])
        local = yield Round([(0, lambda: 1), (0, lambda: 2)])
        single = yield Round([(2, lambda: "only")])
        return (remote, local, single)

    assert run_program(cluster, txn()) == (["x", "y", "z"], [1, 2],
                                           ["only"])


def test_doorbell_batching_fuses_on_both_backends(make_cluster, run_program):
    cluster = make_cluster(doorbell_batching=True)

    def txn():
        results = yield Round([(1, lambda i=i: i) for i in range(4)])
        return results

    assert run_program(cluster, txn()) == [0, 1, 2, 3]
    stats = cluster.network.stats
    assert stats.one_sided_batches == 1
    assert stats.one_sided_batched_verbs == 4
    assert stats.one_sided_remote == 0


# -- RPC and messages --------------------------------------------------------


def test_rpc_round_trip_with_effectful_handler(make_cluster, run_program):
    cluster = make_cluster()

    def handler(src, request):
        [value] = yield Round([(1, lambda: request + 1)])
        yield Compute(0.2)
        return (src, value)

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        reply = yield Rpc(1, 41)
        return reply

    assert run_program(cluster, txn()) == (0, 42)


def test_one_way_post_spawns_handler_with_no_reply(make_cluster, run_program):
    cluster = make_cluster()
    seen = []

    def handler(src, request):
        seen.append((src, request))
        return None
        yield  # pragma: no cover - generator marker

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        cluster.engine(0).post(1, "fire-and-forget")
        yield Sleep(1_000.0)  # keep the cluster alive until delivery

    run_program(cluster, txn())
    assert seen == [(0, "fire-and-forget")]


def test_messages_are_fifo_per_channel(make_cluster, run_program):
    cluster = make_cluster()
    received = []

    def handler(src, request):
        received.append(request)
        return None
        yield  # pragma: no cover - generator marker

    cluster.engine(1).set_rpc_handler(handler)

    def txn():
        for i in range(20):
            cluster.engine(0).post(1, i)
        yield Sleep(1_000.0)

    run_program(cluster, txn())
    assert received == list(range(20))


def test_rpc_replies_route_to_the_right_request(make_cluster):
    """Interleaved RPCs from two tasks: each gets its own reply."""
    cluster = make_cluster()

    def handler(src, request):
        yield Compute(0.1)
        return request * 2

    cluster.engine(1).set_rpc_handler(handler)
    replies = {}

    def client(name, payload):
        reply = yield Rpc(1, payload)
        replies[name] = reply

    cluster.engine(0).spawn(client("a", 10))
    cluster.engine(2).spawn(client("b", 100))
    cluster.run()
    assert replies == {"a": 20, "b": 200}


# -- signals ----------------------------------------------------------------


def test_await_suspends_until_fired_and_passes_value(make_cluster):
    cluster = make_cluster()
    signal = Signal()

    def waiter():
        value = yield Await(signal)
        return value

    def firer():
        yield Compute(1.0)
        signal.fire("payload")

    out = []
    cluster.engine(0).spawn(waiter(), on_done=out.append)
    cluster.engine(1).spawn(firer())
    cluster.run()
    assert out == ["payload"]


def test_await_on_already_fired_signal_resumes(make_cluster, run_program):
    cluster = make_cluster()
    signal = Signal()
    signal.fire(123)

    def txn():
        value = yield Await(signal)
        return value

    assert run_program(cluster, txn()) == 123


# -- failure propagation -----------------------------------------------------


def test_exception_in_remote_verb_op_propagates_out_of_run(make_cluster):
    """A verb op raising at the target aborts the run with that error on
    both backends — never a swallowed exception or a hang."""
    cluster = make_cluster()
    if hasattr(cluster, "run_timeout_s"):
        cluster.run_timeout_s = 10.0  # fail fast if propagation breaks

    def txn():
        yield Round([(1, lambda: 1 / 0)])

    cluster.engine(0).spawn(txn())
    with pytest.raises(ZeroDivisionError):
        cluster.run()


def test_exception_in_transaction_body_propagates_out_of_run(make_cluster):
    cluster = make_cluster()
    if hasattr(cluster, "run_timeout_s"):
        cluster.run_timeout_s = 10.0

    def txn():
        yield Compute(0.1)
        raise KeyError("boom")

    cluster.engine(0).spawn(txn())
    with pytest.raises(KeyError):
        cluster.run()


# -- cross-backend equivalence ----------------------------------------------


def test_composite_program_gives_identical_results_on_both_backends():
    """One program exercising the whole vocabulary must return the exact
    same value from the simulated and the asyncio runtime."""

    def build_and_run(cluster):
        def handler(src, request):
            [inner] = yield Round([(0, lambda: request + 1)])
            return inner

        cluster.engine(1).set_rpc_handler(handler)
        signal = Signal()

        def firer():
            yield Compute(0.5)
            signal.fire("sig")

        def txn():
            yield Compute(1.0)
            reads = yield All([Round([(1, lambda: "r1")]),
                               Round([(0, lambda: "l1")]),
                               Round([(2, lambda: 1), (2, lambda: 2)])])
            reply = yield Rpc(1, 10)
            fired = yield Await(signal)
            empty = yield All([])
            return (reads, reply, fired, empty)

        out = []
        cluster.engine(2).spawn(firer())
        cluster.engine(0).spawn(txn(), on_done=out.append)
        cluster.run()
        return out[0]

    sim_result = build_and_run(Cluster(3, doorbell_batching=True))
    aio_result = build_and_run(AioCluster(3, doorbell_batching=True))
    assert sim_result == aio_result
    assert sim_result == (([["r1"], ["l1"], [1, 2]]), 11, "sig", [])
