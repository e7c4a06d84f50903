"""AccessTelemetry: observation, draining, and merging drained windows."""

from repro.placement import AccessTelemetry, TelemetryWindow
from repro.placement import telemetry as telemetry_module
from repro.txn.common import Outcome


def committed(proc="ycsb", reads=(), writes=(), txn_id=1):
    return Outcome(txn_id=txn_id, proc=proc, committed=True,
                   read_set=tuple(reads), write_set=tuple(writes))


R1, R2, W1 = ("t", 1), ("t", 2), ("t", 3)


def test_observe_counts_reads_and_writes():
    telemetry = AccessTelemetry()
    telemetry.observe(committed(reads=[R1, R2], writes=[W1]), now=10.0)
    telemetry.observe(committed(reads=[R1], writes=[W1]), now=20.0)
    assert telemetry.read_counts == {R1: 2, R2: 1}
    assert telemetry.write_counts == {W1: 2}
    assert telemetry.commits_observed == 2
    assert len(telemetry.samples) == 2


def test_footprint_free_outcomes_are_ignored():
    telemetry = AccessTelemetry()
    telemetry.observe(committed(), now=1.0)
    assert telemetry.commits_observed == 0
    assert not telemetry.samples


def test_sample_cap_keeps_the_most_recent_footprints(monkeypatch):
    monkeypatch.setattr(telemetry_module, "MAX_SAMPLES", 3)
    telemetry = AccessTelemetry()
    for i in range(10):
        telemetry.observe(committed(reads=[("t", i)]), now=float(i))
    assert len(telemetry.samples) == 3
    # counts still cover every commit
    assert telemetry.commits_observed == 10
    kept = {sample.reads[0] for sample in telemetry.samples}
    assert kept == {("t", 7), ("t", 8), ("t", 9)}


def test_drain_snapshots_and_resets_the_window():
    telemetry = AccessTelemetry()
    telemetry.observe(committed(reads=[R1], writes=[W1]), now=5.0)
    window = telemetry.drain(now=100.0)
    assert isinstance(window, TelemetryWindow)
    assert window.start_us == 0.0 and window.end_us == 100.0
    assert window.commits_observed == 1
    assert window.read_counts == {R1: 1}
    # the collector is fresh, anchored at the drain instant
    assert telemetry.commits_observed == 0
    assert not telemetry.samples and not telemetry.read_counts
    assert telemetry.window_start_us == 100.0
    assert telemetry.commits_total == 1  # lifetime counter survives


def test_window_likelihoods_use_the_poisson_model():
    telemetry = AccessTelemetry()
    for i in range(50):
        telemetry.observe(committed(writes=[W1], reads=[R1]), now=float(i))
    window = telemetry.drain(now=1_000.0)
    likelihoods = window.likelihoods(lock_window_us=10.0)
    assert 0.0 < likelihoods[W1] < 1.0
    # a read-only record never conflicts with itself
    assert likelihoods[R1] == 0.0


def test_merged_windows_combine_counts_and_span():
    w1 = TelemetryWindow(0.0, 50.0, (), {R1: 2}, {W1: 1}, 3)
    w2 = TelemetryWindow(10.0, 80.0, (), {R1: 1, R2: 4}, {}, 5)
    merged = TelemetryWindow.merged([w1, w2])
    assert merged.start_us == 0.0 and merged.end_us == 80.0
    assert merged.read_counts == {R1: 3, R2: 4}
    assert merged.commits_observed == 8
    assert merged.accesses(R1) == 3
