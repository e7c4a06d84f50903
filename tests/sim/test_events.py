"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(3.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_schedule_inside_event():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(2.0, lambda: fired.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [1.0, 3.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_delay_rejected():
    """A NaN passed ``delay < 0``: the event fired with the clock at NaN,
    which then stepped back to the next real time (a ``Sleep(nan)``)."""
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)
    sim.run()
    assert sim.events_fired == 0 and sim.now == 0.0


def test_nan_time_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.now == 2.0


def test_heap_orders_by_time_then_seq_without_comparing_handles():
    """Each heap entry is ``(time, seq, fn)`` and nothing else: callables
    define no ordering, so a heap that ever compared two of them would
    raise; same-instant events fire in scheduling order."""
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule(5.0, lambda i=i: fired.append(i))
    sim.schedule(1.0, lambda: fired.append("early"))
    assert all(type(entry) is tuple and len(entry) == 3
               and type(entry[0]) is float and type(entry[1]) is int
               and callable(entry[2]) for entry in sim._queue)
    with pytest.raises(TypeError):
        sim._queue[0][2] < sim._queue[1][2]
    sim.run()
    assert fired == ["early", 0, 1, 2, 3, 4, 5]
    assert sim.events_fired == 7
    assert sim._queue == []


def test_probe_sees_every_event_after_it_fires():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: None))
    sim.schedule(3.0, lambda: None)
    sim.probe = lambda now: seen.append((now, sim.events_fired))
    sim.run()
    assert seen == [(1.0, 1), (2.0, 2), (3.0, 3)]
