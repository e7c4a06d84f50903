"""The experiments CLI rejects what it does not know, and every option
it accepts reaches every cell of every sweep."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import RunConfig, experiments as ex
from repro.traffic import ArrivalSpec

# -- one overrides mapping, delivered to every cell ---------------------------

OVERRIDES = {"wal": "group", "trace": True, "trace_sample": 3,
             "placement": "adaptive", "scheduler": "conflict",
             "doorbell_batching": True, "backend": "aio", "mp_workers": 2,
             "mp_recovery": True,
             "mp_chaos_kill_worker": 1, "metrics_interval": 500.0,
             "offered_load": 5e4, "deadline_us": 9e3,
             "arrivals": ArrivalSpec(process="poisson", admission="deadline")}

SWEEPS = {
    "instacart_sweep": lambda: ex.instacart_sweep(
        (2,), n_train=40, quick=True, overrides=OVERRIDES),
    "fig9_rows": lambda: ex.fig9_rows((1,), quick=True, overrides=OVERRIDES),
    "fig10_rows": lambda: ex.fig10_rows((0,), quick=True,
                                        overrides=OVERRIDES),
    "reorder_ablation_rows": lambda: ex.reorder_ablation_rows(
        n_train=40, quick=True, overrides=OVERRIDES),
    "min_weight_ablation_rows": lambda: ex.min_weight_ablation_rows(
        (0.0,), n_train=40, quick=True, overrides=OVERRIDES),
}


class StubRun:
    """Stands in for a run, its result and its metrics at once."""

    throughput = 0.0

    def run(self):
        return self

    @property
    def metrics(self):
        return self

    def abort_rate(self, proc=None):
        return 0.0

    def distributed_ratio(self):
        return 0.0


@pytest.fixture()
def built_from(monkeypatch):
    """Stub both run factories; collect the config each cell is built from."""
    configs = []

    def make_instacart_run(setup, layout, config, executor_override=None):
        configs.append(config)
        return StubRun()

    def make_tpcc_run(name, config, workload=None):
        configs.append(config)
        return StubRun()

    monkeypatch.setattr(ex, "make_instacart_run", make_instacart_run)
    monkeypatch.setattr(ex, "make_tpcc_run", make_tpcc_run)
    return configs


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_override_reaches_every_cell(sweep, built_from):
    SWEEPS[sweep]()
    assert built_from, "the sweep built no cell"
    for config in built_from:
        assert isinstance(config, RunConfig)
        missing = {key for key, value in OVERRIDES.items()
                   if getattr(config, key) != value}
        assert not missing, f"{sweep} dropped {sorted(missing)}"
    # each cell gets its own config: a WAL directory assigned to one
    # must not leak into the next
    assert len({id(config) for config in built_from}) == len(built_from)


# -- the parser ---------------------------------------------------------------


@pytest.fixture()
def swept(monkeypatch):
    """Stub the five sweeps; collect (sweep, overrides) per call."""
    calls = []
    rows = {"instacart_sweep": [], "fig9_rows": [], "fig10_rows": [],
            "reorder_ablation_rows": [], "min_weight_ablation_rows": []}
    for name in rows:
        def fake(*args, _name=name, overrides=None, **kwargs):
            calls.append((_name, dict(overrides)))
            return rows[_name]
        monkeypatch.setattr(ex, name, fake)
    return calls


@pytest.mark.parametrize("argv", [
    ["fig9a", "--quick", "--wall", "group"],      # misspelt flag
    ["fig9a", "--no-such-flag"],
    ["fig9"],                                     # misspelt figure
    ["fig9a", "--back", "aio"],                   # prefix: not guessed
    ["fig9a", "--trace-sample", "2"],             # needs --trace
    ["fig9a", "--offered-load", "5"],             # needs --arrivals
    ["fig9a", "--watch"],                         # a deleted flag
    ["fig9a", "--metrics-port", "0"],             # needs --metrics-interval
])
def test_unknown_or_inconsistent_arguments_exit_2(argv, swept, capsys):
    with pytest.raises(SystemExit) as exit_info:
        ex.main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not swept, "nothing may run"


@pytest.mark.parametrize("argv", [["--no-such-flag"],
                                  ["--quick", "--backend"]])  # no value
@pytest.mark.parametrize("script", ["bench_sched_contention.py",
                                    "bench_placement_drift.py",
                                    "bench_open_loop.py"])
def test_figure_scripts_reject_bad_arguments(script, argv):
    src = Path(repro.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(src.parent / "benchmarks" / script), *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "usage:" in done.stderr
    assert not done.stdout, "nothing may run"


@pytest.mark.parametrize("flag", [["--chaos-kill", "1"], ["--mp-recovery"]])
@pytest.mark.parametrize("wal", [[], ["--wal", "off"]])
def test_recovery_without_a_durable_wal_exits_2(flag, wal, swept, capsys):
    """A respawn over no log would silently lose the dead worker's
    committed writes."""
    with pytest.raises(SystemExit) as exit_info:
        ex.main(["fig9a", "--quick", "--backend", "mp", *flag, *wal])
    assert exit_info.value.code == 2
    assert "--wal fsync|group" in capsys.readouterr().err
    assert not swept, "nothing may run"


def test_flags_interleave_with_figure_names(swept, capsys):
    ex.main(["fig9a", "--quick", "fig10", "--wal=group", "reorder"])
    assert [name for name, _ in swept] == [
        "fig9_rows", "fig10_rows", "reorder_ablation_rows"]
    assert all(overrides == {"wal": "group"} for _, overrides in swept)


FLAGS = {  # flag -> (value or None for a switch, overrides it must set)
    "--backend": ("aio", {"backend": "aio"}),
    "--workers": ("2", {"mp_workers": 2}),
    "--scheduler": ("conflict", {"scheduler": "conflict"}),
    "--placement": ("adaptive", {"placement": "adaptive"}),
    "--wal": ("group", {"wal": "group"}),
    "--chaos-kill": ("1", {"mp_chaos_kill_worker": 1, "mp_recovery": True}),
    "--chaos-after": ("0.25", {"mp_chaos_kill_after_s": 0.25}),
    "--max-restarts": ("3", {"mp_max_restarts": 3}),
    "--arrivals": ("poisson", {"arrivals": "poisson"}),
    "--offered-load": ("5e4", {"offered_load": 5e4}),
    "--deadline-us": ("4000", {"deadline_us": 4000.0}),
    "--admission": ("deadline", {"arrivals": ArrivalSpec(
        process="poisson", admission="deadline")}),
    "--trace-out": ("{tmp}/t.json", {"trace_out": "{tmp}/t.json",
                                      "trace": True}),
    "--trace-sample": ("4", {"trace_sample": 4}),
    "--metrics-interval": ("500", {"metrics_interval": 500.0}),
    "--metrics-port": ("0", {"metrics_port": 0}),
    "--metrics-csv": ("{tmp}/m.csv", {"metrics_csv": "{tmp}/m.csv"}),
    "--summary-json": ("{tmp}/s.json", {}),
    "--quick": (None, {}),
    "--doorbell": (None, {"doorbell_batching": True}),
    "--mp-recovery": (None, {"mp_recovery": True}),
    "--trace": (None, {"trace": True}),
    "--watchdog-abort": (None, {"watchdog_abort": True}),
}
NEEDS = {"--offered-load": ["--arrivals", "poisson"],
         "--deadline-us": ["--arrivals", "poisson"],
         "--admission": ["--arrivals", "poisson"],
         "--trace-sample": ["--trace"],
         "--metrics-port": ["--metrics-interval", "500"],
         "--metrics-csv": ["--metrics-interval", "500"],
         "--watchdog-abort": ["--metrics-interval", "500"],
         "--chaos-kill": ["--wal", "group"],
         "--mp-recovery": ["--wal", "group"]}


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_all_25_flags_in_both_spellings(flag, swept, tmp_path, capsys):
    assert len(FLAGS) == 23  # 25 with --watch, 24 with --profile
    value, expected = FLAGS[flag]
    fill = lambda x: x.replace("{tmp}", str(tmp_path)) \
        if isinstance(x, str) else x
    expected = {key: fill(val) for key, val in expected.items()}
    spellings = [[flag]] if value is None else \
        [[flag, fill(value)], [f"{flag}={fill(value)}"]]
    for spelled in spellings:
        swept.clear()
        ex.main(["fig9a", *spelled, *NEEDS.get(flag, [])])
        (_, overrides), = swept
        for key, want in expected.items():
            assert overrides[key] == want, (spelled, key)
        # every override is a RunConfig field: RunConfig(**overrides) holds
        dataclasses.replace(RunConfig(), **overrides)
