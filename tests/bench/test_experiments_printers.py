"""Fast tests for the experiment row printers and CLI plumbing.

The sweeps themselves are exercised by the benchmark suite; here we
check the reporting layer against fabricated rows so a broken column
never silently corrupts EXPERIMENTS.md regeneration.
"""

from repro.bench import experiments as ex


def fabricated_instacart_rows():
    return [{
        "partitions": k,
        **{f"{name}_{field}": value
           for name in ex.INSTACART_LAYOUTS
           for field, value in (("throughput", 1000.0 * k),
                                ("distributed", 0.5),
                                ("abort_rate", 0.1),
                                ("lookup", 10),
                                ("edges", 100),
                                ("train_s", 0.5))},
    } for k in (2, 4)]


def fabricated_fig9_rows():
    rows = []
    for conc in (1, 4):
        row = {"concurrent": conc}
        for name in ex.TPCC_EXECUTORS:
            row[f"{name}_throughput"] = 1e5 * conc
            row[f"{name}_abort_rate"] = 0.25
        for proc in ("new_order", "payment", "stock_level"):
            row[f"2pl_{proc}_abort"] = 0.5
        rows.append(row)
    return rows


def test_fig7_printer(capsys):
    ex.print_fig7(fabricated_instacart_rows())
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "chiller" in out
    assert "2" in out and "4" in out


def test_fig8_printer(capsys):
    ex.print_fig8(fabricated_instacart_rows())
    out = capsys.readouterr().out
    assert "Fig. 8" in out
    assert "0.50" in out


def test_lookup_and_cost_printers(capsys):
    rows = fabricated_instacart_rows()
    ex.print_lookup(rows)
    ex.print_cost(rows)
    out = capsys.readouterr().out
    assert "lookup table size" in out
    assert "partitioning cost" in out
    assert "1.0x" in out


def test_fig9_printers(capsys):
    rows = fabricated_fig9_rows()
    ex.print_fig9a(rows)
    ex.print_fig9b(rows)
    ex.print_fig9c(rows)
    out = capsys.readouterr().out
    assert "Fig. 9a" in out and "Fig. 9b" in out and "Fig. 9c" in out
    assert "payment" in out


def test_fig10_printer(capsys):
    rows = [{"percent": 0,
             **{f"{n}_{c}_throughput": 5e5
                for n, c in ex.FIG10_SERIES}}]
    ex.print_fig10(rows)
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    assert "chiller(5)" in out


def test_reorder_and_minweight_printers(capsys):
    ex.print_reorder([{"label": "full Chiller", "layout": "chiller",
                       "executor": "chiller", "throughput": 1e5,
                       "abort_rate": 0.1, "distributed": 0.9}])
    ex.print_min_weight([{"min_weight": 0.2, "throughput": 1e5,
                          "abort_rate": 0.1, "distributed": 0.9}])
    out = capsys.readouterr().out
    assert "full Chiller" in out
    assert "0.20" in out


def test_throughput_precision_follows_the_table_not_the_backend(capsys):
    """aio/mp cells run at 0.3-3 K/s, which ``.0f`` printed as 0s and
    1s; sim tables (hundreds of K) keep their integer cells."""
    rows = fabricated_fig9_rows()
    ex.print_fig9a(rows)
    body = capsys.readouterr().out.split("==\n")[1]
    assert "100" in body and "400" in body and "." not in body
    for row in rows:
        for name in ex.TPCC_EXECUTORS:
            row[f"{name}_throughput"] = 340.0 * row["concurrent"]
    ex.print_fig9a(rows)
    body = capsys.readouterr().out.split("==\n")[1]
    assert body.count("0.34") == 3 and body.count("1.36") == 3
    # one cell at 10 K carries the whole table back to integers
    rows[1]["chiller_throughput"] = 10_000.0
    ex.print_fig9a(rows)
    body = capsys.readouterr().out.split("==\n")[1]
    assert "." not in body and "10" in body
