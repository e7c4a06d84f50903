"""Tier-1 checks of the benchmark itself: names agree with
``BENCHMARK.json``, sim cells repeat exactly, and the arithmetic that
turns observations into metrics is right.  Sim only, no fleet spawn.
"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import adapter
import layers
import measure
import spans
import summary

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_and_units_match_benchmark_json():
    assert ({w["name"]: w["why"] for w in SPEC["workloads"]}
            == {c.name: c.why for c in adapter.CELLS.values()})
    assert ({m["name"]: (m["unit"], m["better"])
             for m in SPEC["end_to_end"]} == summary.END_TO_END)
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == layers.units())
    assert ({m["name"] for m in SPEC["per_layer"] if m["better"] == "higher"}
            == layers.BETTER_HIGHER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", [
    "tpcc_chiller_sim", "ycsb_hot_open_sim", "ycsb_wal_sim"])
def test_sim_cell_repeats_exactly_and_checks_pass(name):
    cell = adapter.CELLS[name]
    repeats = [measure.sim_repeat(adapter, cell, seed=3, scale=0.1)
               for _ in range(2)]
    assert summary.exactness_problems(repeats) == []
    assert all(r["check"] == [] for r in repeats)
    assert repeats[0]["failed"] == 0
    metrics = measure.end_to_end(cell, repeats)
    assert set(metrics) == set(summary.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_exactness_check_names_the_difference():
    base = dict.fromkeys(summary.EXACT_SIM_KEYS, 1)
    base["commit_latencies_us"] = [1.0, 2.0]
    other = dict(base, commits=2, commit_latencies_us=[1.0, 2.5])
    problems = summary.exactness_problems([base, other])
    assert len(problems) == 2
    assert "commits" in problems[0] and "latencies" in problems[1]


def test_quartiles():
    assert summary.quartiles([10.0, 11.0, 12.0, 13.0, 50.0]) == (
        11.0, 12.0, 13.0)
    assert summary.quartiles([7]) == (7.0, 7.0, 7.0)


def test_timings_are_divided_by_the_slowdown_they_were_taken_under():
    cell = adapter.CELLS["ycsb_mp_tcp"]
    quiet = {"setup_s": 1.0, "setup_slowdown": 1.0, "cpu_s": 2.0,
             "slowdown": 1.0, "commits": 1000, "txn_per_s": 500.0,
             "commit_latencies_us": [100.0, 200.0, 300.0]}
    # the same run on a machine at half speed
    slow = dict(quiet, setup_s=2.0, setup_slowdown=2.0, cpu_s=4.0,
                slowdown=2.0, txn_per_s=250.0,
                commit_latencies_us=[200.0, 400.0, 600.0])
    timings = measure.timings(cell, [quiet, slow])
    assert timings == {"setup_s": [1.0, 1.0],
                       "cpu_us_per_commit": [2000.0, 2000.0],
                       "txn_per_s": [500.0, 500.0],
                       "p50_us": [200.0, 200.0]}


def test_calibrator_reports_cost_over_nominal():
    ticks = iter([0.0, 0.0004, 1.0, 1.0012])
    calibrator = measure.Calibrator(clock=lambda: next(ticks))
    calibrator.burst()
    calibrator.burst()
    # 1.6 ms for 2000 ops = 800 ns/op = twice the nominal 400 ns
    assert calibrator.slowdown() == pytest.approx(2.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert summary.percentile(values, 0.50) == 51
    assert summary.percentile(values, 0.99) == 100
    assert summary.percentile([], 0.5) == 0.0


def test_shares_count_shed_and_failed_as_slo_misses():
    obs = {"commits": 90, "contention_aborts": 30, "requests": 100,
           "failed": 4, "in_slo": 85}
    shares = summary.shares(obs)
    assert shares["commit_share"] == 90 / 120
    assert shares["slo_ok_share"] == 0.85
    assert shares["completed_share"] == 0.96


def _fake_program():
    module = types.ModuleType("fake_program")

    class Inner:
        def work(self, x):
            return x + 1

    class Outer:
        def steps(self, inner):
            got = yield inner.work(1)
            try:
                yield got
            except KeyError:
                yield "caught"
            return "done"

    module.Inner, module.Outer = Inner, Outer
    sys.modules["fake_program"] = module
    return module


def test_spans_wrap_restore_and_attribute_self_time():
    module = _fake_program()
    original = module.Outer.__dict__["steps"]
    targets = (("outer", "fake_program", "Outer.steps"),
               ("inner", "fake_program", "Inner.work"))
    recorder = spans.SpanRecorder()
    try:
        with spans.installed(recorder, targets):
            assert module.Outer.__dict__["steps"] is not original
            gen = module.Outer().steps(module.Inner())
            assert next(gen) == 2
            assert gen.send("sent") == "sent"
            assert gen.throw(KeyError()) == "caught"
            with pytest.raises(StopIteration) as stop:
                next(gen)
            assert stop.value.value == "done"
        assert module.Outer.__dict__["steps"] is original
    finally:
        del sys.modules["fake_program"]
    assert recorder.calls == {"outer": 4, "inner": 1}
    # the inner span is a child of the first outer resume
    assert recorder.kept[1][3] == 0
    assert sum(recorder.self_ns.values()) == recorder.root_ns


def test_missing_span_target_degrades_with_a_warning(capsys):
    _fake_program()
    targets = (("inner", "fake_program", "Inner.work"),
               ("gone", "fake_program", "Inner.no_such_method"),
               ("gone", "no_such_module", "f"))
    try:
        with spans.installed(spans.SpanRecorder(), targets) as recorder:
            sys.modules["fake_program"].Inner().work(1)
    finally:
        del sys.modules["fake_program"]
    assert recorder.calls == {"inner": 1}
    assert capsys.readouterr().err.count("is gone") == 2


def test_real_span_targets_all_exist(capsys):
    with spans.installed(spans.SpanRecorder()):
        pass
    assert "is gone" not in capsys.readouterr().err


def test_child_pids_lists_a_live_child_and_forgets_a_reaped_one():
    child = subprocess.Popen([sys.executable, "-c", "input()"],
                             stdin=subprocess.PIPE)
    try:
        assert child.pid in measure.child_pids()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in measure.child_pids()
