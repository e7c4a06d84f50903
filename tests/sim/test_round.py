"""A ``Round`` is its verbs issued one by one, event for event.

On the sim backend a round of verbs is handed to ``Network.round`` in
one call.  Whatever rounds are drawn, it must give the same results, the
same event stream (every event's time, in firing order, and when each op
ran) and equal ``NetworkStats`` as the per-verb oracle, which calls the
network's verb primitives directly: ``one_sided`` per verb with
doorbell batching off, and with it on the grouped ``one_sided_batch`` /
``one_sided`` sequence (per target in first-appearance order; a remote
group of two or more verbs fused, every other verb on its own).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cluster, Round

SERVERS = 4
SRC = 1
KIND = "lock_read"


@st.composite
def rounds(draw):
    """1–3 rounds issued in the same instant (so their verbs contend
    for the same FIFO channels), each of 1–12 verbs to repeated local
    and remote targets, sized or not."""
    drawn = []
    for _ in range(draw(st.integers(1, 3))):
        targets = draw(st.lists(st.integers(0, SERVERS - 1),
                                min_size=1, max_size=12))
        sizes = draw(st.none() | st.lists(st.integers(0, 300),
                                          min_size=len(targets),
                                          max_size=len(targets)))
        drawn.append((targets, sizes))
    return drawn


def _oracle(cluster, targets, ops, sizes, done):
    """The round's verbs issued one primitive call at a time."""
    net = cluster.network
    results = [None] * len(targets)
    left = [len(targets)]

    def fill(idxs, values):
        for i, value in zip(idxs, values):
            results[i] = value
        left[0] -= len(idxs)
        if not left[0]:
            done(results)

    if not net.doorbell_batching:
        for i, target in enumerate(targets):
            net.one_sided(SRC, target, ops[i],
                          lambda value, i=i: fill([i], [value]),
                          kind=KIND, nbytes=sizes[i] if sizes else None)
        return
    groups: dict[int, list[int]] = {}
    for i, target in enumerate(targets):
        groups.setdefault(target, []).append(i)
    for target, idxs in groups.items():
        if len(idxs) >= 2 and target != SRC:
            net.one_sided_batch(
                SRC, target, [ops[i] for i in idxs],
                lambda values, idxs=idxs: fill(idxs, values), KIND,
                [sizes[i] for i in idxs] if sizes else None)
            continue
        for i in idxs:
            net.one_sided(SRC, target, ops[i],
                          lambda value, i=i: fill([i], [value]),
                          kind=KIND, nbytes=sizes[i] if sizes else None)


def _run(drawn, doorbell, use_round):
    cluster = Cluster(SERVERS, doorbell)
    sim = cluster.sim
    log = []
    sim.probe = lambda now: log.append(("event", now))

    def issue():
        for r, (targets, sizes) in enumerate(drawn):
            ops = [lambda r=r, i=i: log.append(("op", r, i, sim.now))
                   or (r, i) for i in range(len(targets))]

            def done(results, r=r):
                log.append(("done", r, sim.now, list(results)))

            if use_round:
                cluster.engine(SRC).perform(
                    Round(list(zip(targets, ops)), KIND, sizes), done)
            else:
                _oracle(cluster, targets, ops, sizes, done)

    sim.schedule(0.5, issue)
    sim.run()
    return log, dataclasses.asdict(cluster.network.stats)


@settings(max_examples=300, deadline=None)
@given(drawn=rounds(), doorbell=st.booleans())
def test_a_round_is_its_verbs_event_for_event(drawn, doorbell):
    log, stats = _run(drawn, doorbell, use_round=True)
    expected_log, expected_stats = _run(drawn, doorbell, use_round=False)
    assert log == expected_log
    assert stats == expected_stats
    # dict order too: reports and digests iterate the books
    assert ([list(book) for book in stats.values() if isinstance(book, dict)]
            == [list(book) for book in expected_stats.values()
                if isinstance(book, dict)])
    assert len([entry for entry in log if entry[0] == "done"]) == len(drawn)


def test_an_empty_round_resumes_with_no_results():
    cluster = Cluster(2)
    out = []

    def txn():
        out.append((yield Round([], KIND)))

    cluster.engine(0).spawn(txn())
    cluster.run()
    assert out == [[]]
    assert cluster.network.stats.total_remote_ops() == 0


def test_a_round_refuses_sizes_that_do_not_match_its_verbs():
    with pytest.raises(ValueError, match="2 sizes for 1 verbs"):
        Round([(0, lambda: None)], KIND, [8, 8])
