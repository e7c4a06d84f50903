"""Unit tests for the simulated CPU core."""

import pytest

from repro.sim import Core, Simulator


def test_fifo_service():
    sim = Simulator()
    core = Core(sim)
    finished = []
    core.execute(3.0, lambda: finished.append(("a", sim.now)))
    core.execute(2.0, lambda: finished.append(("b", sim.now)))
    sim.run()
    assert finished == [("a", 3.0), ("b", 5.0)]


def test_work_submitted_later_starts_after_now():
    sim = Simulator()
    core = Core(sim)
    finished = []
    sim.schedule(10.0, lambda: core.execute(1.0,
                                            lambda: finished.append(sim.now)))
    sim.run()
    assert finished == [11.0]


def test_busy_time_accumulates():
    sim = Simulator()
    core = Core(sim)
    core.execute(3.0, lambda: None)
    core.execute(4.0, lambda: None)
    sim.run()
    assert core.busy_time == pytest.approx(7.0)


def test_utilization_with_idle_gap():
    sim = Simulator()
    core = Core(sim)
    core.execute(5.0, lambda: None)
    sim.schedule(10.0, lambda: None)    # the clock idles on to 10
    sim.run()
    assert core.utilization() == pytest.approx(0.5)


def test_zero_cost_work_still_queues_fifo():
    sim = Simulator()
    core = Core(sim)
    order = []
    core.execute(2.0, lambda: order.append("slow"))
    core.execute(0.0, lambda: order.append("fast"))
    sim.run()
    assert order == ["slow", "fast"]


def test_negative_cost_rejected():
    sim = Simulator()
    core = Core(sim)
    with pytest.raises(ValueError):
        core.execute(-1.0, lambda: None)


def test_nan_cost_rejected_and_core_unpoisoned():
    """A NaN cost passed ``cost < 0`` and left ``busy_until`` at NaN, so
    every later piece of work on the core landed at NaN."""
    sim = Simulator()
    core = Core(sim)
    finished = []
    with pytest.raises(ValueError):
        core.execute(float("nan"), lambda: None)
    core.execute(2.0, lambda: finished.append(sim.now))
    sim.run()
    assert finished == [2.0]
    assert core.busy_time == 2.0 and core.busy_until == 2.0
