"""``benchmarks/pairs.py``: the per-metric verdict and the claim rule,
on hand-made run lists (no benchmark process is started)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"better": "lower", "bound": 0.15}
HIGHER = {"better": "higher", "bound": 0.15}

PARENT = [100.0, 98.0, 103.0, 101.0, 99.0, 102.0, 97.0, 100.0, 104.0, 96.0]


def scaled(values, factor):
    return [value * factor for value in values]


def test_compare_reads_each_pair_against_its_own_parent_run():
    row = pairs.compare(LOWER, PARENT, scaled(PARENT, 0.85))
    assert row["pairs_won"] == 10
    assert row["median_worse"] == pytest.approx(-0.15)
    assert row["verdict"] == "ok"


@pytest.mark.parametrize("factor, verdict", [
    (1.10, "ok"),           # worse, but inside the bound
    (1.20, "regressed"),    # worse beyond the bound in every pair
])
def test_compare_verdicts_follow_the_bound(factor, verdict):
    assert pairs.compare(LOWER, PARENT, scaled(PARENT, factor))[
        "verdict"] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = wide[1:] + wide[:1]
    assert pairs.compare(LOWER, wide, change)["verdict"] == "unresolved"


def test_ties_win_no_pair():
    change = list(PARENT)
    change[0] -= 1.0
    assert pairs.compare(LOWER, PARENT, change)["pairs_won"] == 1


def test_a_large_gain_in_every_pair_meets_the_claim():
    row = pairs.compare(LOWER, PARENT, scaled(PARENT, 0.85))
    verdict = pairs.claim_verdict(row, 10)
    assert verdict["met"]
    assert verdict["median_gain"] == pytest.approx(0.15)
    assert verdict["wins_needed"] == 9


def test_the_last_ledger_shape_does_not_meet_the_claim():
    """+8 % in the median on a higher-is-better metric, won 8 of 10:
    one pair short, whatever the spread."""
    parent = [2838.0, 2700.0, 2950.0, 2800.0, 2900.0,
              2760.0, 2880.0, 2820.0, 2860.0, 2790.0]
    change = scaled(parent, 1.08)
    change[0], change[1] = parent[0] - 5.0, parent[1]   # a loss and a tie
    row = pairs.compare(HIGHER, parent, change)
    assert row["pairs_won"] == 8
    assert row["median_worse"] == pytest.approx(-0.08, abs=0.01)
    verdict = pairs.claim_verdict(row, 10)
    assert not verdict["met"]
    assert verdict["median_gain"] > verdict["parent_iqr"]


def test_nine_wins_and_a_tie_meet_the_claim():
    change = scaled(PARENT, 0.85)
    change[3] = PARENT[3]
    verdict = pairs.claim_verdict(pairs.compare(LOWER, PARENT, change), 10)
    assert verdict["pairs_won"] == 9 and verdict["met"]


def test_a_gain_inside_the_parent_spread_does_not_meet_the_claim():
    change = scaled(PARENT, 0.98)      # wins every pair by 2 %
    row = pairs.compare(LOWER, PARENT, change)
    verdict = pairs.claim_verdict(row, 10)
    assert row["pairs_won"] == 10
    assert verdict["parent_iqr"] > verdict["median_gain"]
    assert not verdict["met"]


def test_nine_tenths_rounds_up():
    row = {"median_worse": -0.5, "parent_iqr": 0.01, "pairs_won": 2}
    assert pairs.claim_verdict(row, 3)["wins_needed"] == 3
    assert not pairs.claim_verdict(row, 3)["met"]


def fake_runs(factor, anchor=None, anchor_factor=1.0, seen=None):
    """A ``run_once`` that starts no process: the change side reads
    ``cpu_us_per_commit`` times ``factor`` (the ``anchor`` checkout
    times ``anchor_factor``), every other metric equal.  ``seen`` lists
    ``(seed, checkout)`` in the order they ran."""
    metrics = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(command, checkout, seconds):
        seed = int(command[command.index("--seed") + 1])
        if seen is not None:
            seen.append((seed, checkout))
        scale = {pairs.ROOT: factor, anchor: anchor_factor}.get(checkout, 1)
        return {"correct": True, "failed": 0, "metrics": {
            name: {"value": PARENT[seed - 1] * (
                scale if name == "cpu_us_per_commit" else 1)}
            for name in metrics}}
    return run_once


def test_main_records_the_claim_and_keeps_its_exit_code(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pairs, "run_once", fake_runs(0.85))
    out = tmp_path / "ledger.json"
    code = pairs.main(["--parent", str(tmp_path), "--out", str(out),
                       "--workload", "tpcc_chiller_sim",
                       "--claim", "tpcc_chiller_sim:cpu_us_per_commit"])
    assert code == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["workload"] == "tpcc_chiller_sim"
    assert claim["metric"] == "cpu_us_per_commit" and claim["met"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
        "claim": claim}


def test_main_without_a_claim_records_none(tmp_path, monkeypatch):
    monkeypatch.setattr(pairs, "run_once", fake_runs(1.0))
    out = tmp_path / "ledger.json"
    assert pairs.main(["--parent", str(tmp_path), "--out", str(out),
                       "--pairs", "3",
                       "--workload", "tpcc_chiller_sim"]) == 0
    assert set(json.loads(out.read_text())) == {
        "parent_commit", "pairs", "seconds", "summary", "runs"}


@pytest.mark.parametrize("claim", [
    "tpcc_chiller_sim", "tpcc_chiller_sim:speed",
    "ycsb_mp_tcp:cpu_us_per_commit",      # a workload this call skips
])
def test_a_malformed_claim_exits_2_before_any_run(tmp_path, monkeypatch,
                                                  claim):
    monkeypatch.setattr(pairs, "run_once", None)
    with pytest.raises(SystemExit) as exit_:
        pairs.main(["--parent", str(tmp_path), "--out",
                    str(tmp_path / "x.json"),
                    "--workload", "tpcc_chiller_sim", "--claim", claim])
    assert exit_.value.code == 2


# -- the anchor arm and the trajectory ----------------------------------------


def test_two_arms_alternate_and_three_rotate():
    assert [pairs.arm_order(seed, False)[0] for seed in (1, 2, 3)] == [
        "parent", "change", "parent"]
    orders = [pairs.arm_order(seed, True) for seed in range(1, 7)]
    assert all(sorted(order) == ["anchor", "change", "parent"]
               for order in orders)
    leads = [order[0] for order in orders]
    assert {arm: leads.count(arm) for arm in leads} == {
        "parent": 2, "change": 2, "anchor": 2}
    assert sum(order.index("parent") < order.index("change")
               for order in orders) == 3


def test_main_with_an_anchor_runs_three_arms_and_records_ratios(
        tmp_path, monkeypatch):
    anchor = (tmp_path / "anchor").resolve()
    anchor.mkdir()
    seen = []
    monkeypatch.setattr(pairs, "run_once", fake_runs(
        0.85, anchor=anchor, anchor_factor=1.25, seen=seen))
    out = tmp_path / "ledger.json"
    code = pairs.main(["--parent", str(tmp_path), "--out", str(out),
                       "--pairs", "3", "--workload", "tpcc_chiller_sim",
                       "--anchor", str(anchor),
                       "--claim", "tpcc_chiller_sim:cpu_us_per_commit"])
    assert code == 0
    # every seed runs all three arms, and each arm leads one seed
    assert len(seen) == 9
    assert {checkout for _seed, checkout in seen[0::3]} == {
        tmp_path.resolve(), pairs.ROOT, anchor}
    record = json.loads(out.read_text())
    assert set(record) == {"parent_commit", "anchor_commit", "pairs",
                           "seconds", "summary", "runs", "claim"}
    assert {run["side"] for run in record["runs"]} == {
        "parent", "change", "anchor"}
    row = next(row for row in record["summary"]
               if row["metric"] == "cpu_us_per_commit")
    assert row["anchor_median"] == pytest.approx(1.25 * 100.0)
    assert row["change_over_anchor"] == pytest.approx(0.85 / 1.25)
    assert row["parent_over_anchor"] == pytest.approx(1 / 1.25)
    # the pair verdict is still parent against change alone
    assert row["pairs_won"] == 3 and row["verdict"] == "ok"
    assert record["claim"]["pairs_won"] == 3


def test_without_an_anchor_rows_carry_no_ratios(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(pairs, "run_once", fake_runs(1.0, seen=seen))
    out = tmp_path / "ledger.json"
    assert pairs.main(["--parent", str(tmp_path), "--out", str(out),
                       "--pairs", "2",
                       "--workload", "tpcc_chiller_sim"]) == 0
    assert [seed for seed, _checkout in seen] == [1, 1, 2, 2]
    assert [checkout == pairs.ROOT for _seed, checkout in seen] == [
        False, True, True, False]
    assert not any("anchor_median" in row
                   for row in json.loads(out.read_text())["summary"])


def test_trajectory_runs_nothing_and_prints_every_ledger(
        tmp_path, monkeypatch, capsys):
    anchor = (tmp_path / "anchor").resolve()
    anchor.mkdir()
    monkeypatch.setattr(pairs, "run_once", fake_runs(0.85, anchor=anchor,
                                                     anchor_factor=1.25))
    pairs.main(["--parent", str(tmp_path), "--out",
                str(tmp_path / "BENCH_PR12.json"), "--pairs", "3",
                "--workload", "tpcc_chiller_sim", "--anchor", str(anchor),
                "--claim", "tpcc_chiller_sim:cpu_us_per_commit"])
    monkeypatch.setattr(pairs, "run_once", fake_runs(1.0))
    pairs.main(["--parent", str(tmp_path), "--out",
                str(tmp_path / "BENCH_PR3.json"), "--pairs", "2",
                "--workload", "ycsb_wal_sim"])
    capsys.readouterr()

    monkeypatch.setattr(pairs, "run_once", None)
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    assert pairs.main(["--trajectory"]) == 0
    header, old, new = capsys.readouterr().out.splitlines()
    assert header.split("\t")[:4] == ["ledger", "workload", "verdicts",
                                      "claim"]
    # so few pairs spread wider than the two tightest bounds
    unresolved = "slo_ok_share unresolved, completed_share unresolved"
    assert old.split("\t") == ["BENCH_PR3", "ycsb_wal_sim", unresolved,
                               "-", "-", "-", "-", "-"]
    assert new.split("\t") == [
        "BENCH_PR12", "tpcc_chiller_sim", unresolved,
        "cpu_us_per_commit -15.0% 3/3 met", "0.680", "0.800",
        "1.000", "1.000"]


def test_the_committed_ledgers_read_as_one_trajectory(capsys):
    assert pairs.main(["--trajectory"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ledgers = sorted(ROOT.glob("BENCH_PR*.json"))
    assert len(lines) == 1 + sum(
        len({row["workload"] for row in json.loads(path.read_text())[
            "summary"]}) for path in ledgers)
