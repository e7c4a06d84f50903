"""CLI argument handling for the experiments module (sweeps stubbed)."""

import pytest

from repro.bench import experiments as ex


@pytest.fixture()
def stubbed(monkeypatch):
    calls = []

    def fake_instacart_sweep(partitions, quick=False, **kwargs):
        calls.append(("instacart", tuple(partitions), quick))
        return [{"partitions": k,
                 **{f"{n}_{f}": 1.0
                    for n in ex.INSTACART_LAYOUTS
                    for f in ("throughput", "distributed", "abort_rate",
                              "lookup", "edges", "train_s")}}
                for k in partitions]

    def fake_fig9_rows(concurrency, quick=False, **kwargs):
        calls.append(("fig9", tuple(concurrency), quick))
        rows = []
        for c in concurrency:
            row = {"concurrent": c}
            for n in ex.TPCC_EXECUTORS:
                row[f"{n}_throughput"] = 1.0
                row[f"{n}_abort_rate"] = 0.0
            for p in ("new_order", "payment", "stock_level"):
                row[f"2pl_{p}_abort"] = 0.0
            rows.append(row)
        return rows

    def fake_fig10_rows(percents, quick=False, **kwargs):
        calls.append(("fig10", tuple(percents), quick))
        return [{"percent": p,
                 **{f"{n}_{c}_throughput": 1.0
                    for n, c in ex.FIG10_SERIES}}
                for p in percents]

    def fake_reorder(quick=False, **kwargs):
        calls.append(("reorder", quick))
        return [{"label": "x", "layout": "hashing", "executor": "2pl",
                 "throughput": 1.0, "abort_rate": 0.0,
                 "distributed": 0.0}]

    def fake_minweight(quick=False, **kwargs):
        calls.append(("minweight", quick))
        return [{"min_weight": 0.0, "throughput": 1.0,
                 "abort_rate": 0.0, "distributed": 0.0}]

    monkeypatch.setattr(ex, "instacart_sweep", fake_instacart_sweep)
    monkeypatch.setattr(ex, "fig9_rows", fake_fig9_rows)
    monkeypatch.setattr(ex, "fig10_rows", fake_fig10_rows)
    monkeypatch.setattr(ex, "reorder_ablation_rows", fake_reorder)
    monkeypatch.setattr(ex, "min_weight_ablation_rows", fake_minweight)
    return calls


def test_default_runs_fig7(stubbed, capsys):
    ex.main([])
    assert ("instacart", (2, 3, 4, 5, 6, 7, 8), False) in stubbed
    assert "Fig. 7" in capsys.readouterr().out


def test_quick_flag_shrinks_sweeps(stubbed, capsys):
    ex.main(["fig7", "--quick"])
    assert ("instacart", (2, 4, 8), True) in stubbed


def test_all_runs_everything(stubbed, capsys):
    ex.main(["all", "--quick"])
    kinds = {call[0] for call in stubbed}
    assert kinds == {"instacart", "fig9", "fig10", "reorder",
                     "minweight"}
    out = capsys.readouterr().out
    for marker in ("Fig. 7", "Fig. 8", "Fig. 9a", "Fig. 9b", "Fig. 9c",
                   "Fig. 10", "lookup table size", "partitioning cost",
                   "Ablation"):
        assert marker in out


def test_selected_figures_only(stubbed, capsys):
    ex.main(["fig9b"])
    kinds = [call[0] for call in stubbed]
    assert kinds == ["fig9"]
    out = capsys.readouterr().out
    assert "Fig. 9b" in out
    assert "Fig. 9a" not in out


def test_backend_flag_both_spellings(stubbed, capsys):
    ex.main(["fig9a", "--backend", "aio"])
    assert [call[0] for call in stubbed] == ["fig9"]
    assert "wall-clock" in capsys.readouterr().out
    ex.main(["fig9a", "--backend=aio"])
    assert "wall-clock" in capsys.readouterr().out


def test_backend_flag_default_is_sim(stubbed, capsys):
    ex.main(["fig9a"])
    assert "wall-clock" not in capsys.readouterr().out


def test_unknown_backend_rejected(stubbed):
    with pytest.raises(SystemExit):
        ex.main(["fig9a", "--backend", "quantum"])
    with pytest.raises(SystemExit):
        ex.main(["fig9a", "--backend"])


def test_mp_backend_flag_prints_parallel_note(stubbed, capsys):
    ex.main(["fig9a", "--backend", "mp"])
    assert [call[0] for call in stubbed] == ["fig9"]
    out = capsys.readouterr().out
    assert "(overrides: backend=mp)" in out
    assert "mp backend: throughput is wall-clock" in out


def test_workers_flag_both_spellings(stubbed, capsys):
    ex.main(["fig9a", "--backend", "mp", "--workers", "2"])
    assert "(overrides: backend=mp mp_workers=2)" in capsys.readouterr().out
    ex.main(["fig9a", "--backend=mp", "--workers=3"])
    assert "(overrides: backend=mp mp_workers=3)" in capsys.readouterr().out


def test_workers_flag_rejects_bad_values(stubbed):
    with pytest.raises(SystemExit):
        ex.main(["fig9a", "--workers", "zero"])
    with pytest.raises(SystemExit):
        ex.main(["fig9a", "--workers", "0"])
    with pytest.raises(SystemExit):
        ex.main(["fig9a", "--workers"])
