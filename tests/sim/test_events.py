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


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.events_fired == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    handle.cancel()  # second cancel must be harmless
    sim.run()
    assert fired == []


def test_cancel_after_firing_is_safe():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.run()
    handle.cancel()  # late cancel cannot un-fire or corrupt the queue
    assert fired == ["x"]
    assert sim.events_fired == 1


def test_cancel_one_of_same_time_events_preserves_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("a"))
    victim = sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(2.0, lambda: fired.append("c"))
    victim.cancel()
    sim.run()
    assert fired == ["a", "c"]
    assert sim.events_fired == 2


def test_cancel_from_inside_an_earlier_event():
    sim = Simulator()
    fired = []
    later = sim.schedule(5.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: later.cancel())
    sim.run()
    assert fired == []
    assert sim.now == 1.0  # clock never advances to the cancelled event


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


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run_until(2.0)
    assert fired == [1, 2]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 2, 3]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0


def test_pending_counts_uncancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
    assert sim.pending() == 1


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_run_with_zero_budget_fires_nothing():
    """Regression: the budget used to be checked after the first step,
    so ``max_events=0`` fired one event."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.run(max_events=0)
    assert fired == [] and sim.now == 0.0 and sim.pending() == 1
    sim.run(max_events=1)
    assert fired == [1]


def test_run_rejects_negative_budget():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match="negative"):
        sim.run(max_events=-1)
    assert sim.pending() == 1


def test_heap_orders_by_time_then_seq_without_comparing_handles():
    """Handles define no ordering, so a heap that ever compared two of
    them would raise; same-instant events still fire in scheduling
    order and cancelled ones are skipped."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(5.0, lambda i=i: fired.append(i))
               for i in range(6)]
    sim.schedule(1.0, lambda: fired.append("early"))
    handles[2].cancel()
    with pytest.raises(TypeError):
        handles[0] < handles[1]
    assert sim.pending() == 6
    sim.run()
    assert fired == ["early", 0, 1, 3, 4, 5]
    assert sim.events_fired == 6
