"""Lint, bench/traffic slice: one way to build, drive and configure a run.

The bench layer once held five database builders, two request
lifecycles, two run epilogues and a hand-written flag scanner; this
keeps each of them single.  ``bench/setups.build_run`` is the only
place a ``Database`` is made and an executor picked by name,
``harness.Load.lifecycle`` the only place a request meets its scheduler,
``harness.drive`` / ``Run.run`` the only sampler and the only
timeline + watchdog + HTTP wiring, and ``traffic`` sits below ``bench``:
it imports nothing from it, and the harness needs no lazy import to
reach it.  And there is one perf system: ``BENCHMARK.json`` +
``benchmarks/e2e/`` gate and ``benchmarks/pairs.py`` records; the
baseline file, its checker and their environment gates stay gone.
And one fold: a stats class declares per field how it merges and where
it shows (``repro/_stats.py``); the hand-written ``merge_from`` /
``merged`` / ``timeline_snapshot`` per class stay gone, and the timeline
sampler names no stats class or field.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import repro
from repro.bench import RunConfig

SRC = Path(repro.__file__).parent
BENCH_AND_TRAFFIC = sorted((SRC / "bench").glob("*.py")) \
    + sorted((SRC / "traffic").glob("*.py"))


def code_lines() -> list[str]:
    """Every non-import source line under ``bench/`` and ``traffic/``."""
    lines = []
    for path in BENCH_AND_TRAFFIC:
        tree = ast.parse(path.read_text())
        imported = {line for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for line in range(node.lineno, node.end_lineno + 1)}
        lines += [text for number, text
                  in enumerate(path.read_text().splitlines(), 1)
                  if number not in imported]
    return lines


def count(piece: str) -> int:
    return sum(len(re.findall(piece, line)) for line in code_lines())


def test_one_database_builder_and_one_executor_table():
    assert count(r" Database\(") == 1
    assert count(r"\bTwoPLExecutor\b") <= 1


def test_one_request_lifecycle():
    assert count(r"scheduler\.admit\(") <= 1


def test_one_sampler_and_one_timeline_wiring():
    for piece in (r"\bTimelineSampler\(", r"\bHealthWatchdog\(",
                  r"\bMetricsHttpServer\("):
        assert count(piece) <= 1, piece


def test_the_hand_written_flag_scanner_stays_gone():
    assert count(r"def _parse_option\b") == 0
    assert count(r"def _parse_workers\b") == 0


def test_experiments_take_one_overrides_mapping():
    threaded = {"durability", "traffic", "tracing", "observability"}
    tree = ast.parse((SRC / "bench" / "experiments.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = {arg.arg for arg in (args.posonlyargs + args.args
                                         + args.kwonlyargs)}
            assert not threaded & names, getattr(node, "name", "lambda")


def test_run_config_does_not_grow():
    assert len(dataclasses.fields(RunConfig)) <= 41


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules ``path`` imports, lazy ones too."""
    package = path.relative_to(SRC.parent).parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = list(package[:len(package) - node.level + 1]
                         if node.level else ())
            parts += node.module.split(".") if node.module else []
            module = ".".join(parts)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_traffic_sits_below_bench():
    for path in sorted((SRC / "traffic").glob("*.py")):
        above = [name for name in imported_modules(path)
                 if (name + ".").startswith("repro.bench.")]
        assert not above, f"{path.name}: {above}"


def test_harness_reaches_traffic_at_module_level_only():
    tree = ast.parse((SRC / "bench" / "harness.py").read_text())
    lazy = [node.lineno
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
            if isinstance(node, ast.ImportFrom) and node.level
            and (node.module or "").split(".")[0] == "traffic"]
    assert not lazy, lazy


def test_one_perf_system():
    root = SRC.parents[1]
    assert not (root / "BENCH_BASELINE.json").exists()
    assert not (root / "benchmarks" / "check_perf_regression.py").exists()
    # nothing the program or a figure script does depends on the
    # environment, and none feeds a pytest-benchmark side channel
    for path in sorted(SRC.rglob("*.py")) \
            + sorted((root / "benchmarks").glob("*.py")):
        found = re.findall(r"os\.environ|getenv|\bextra_info\b",
                           path.read_text())
        assert not found, f"{path}: {found}"


# -- one fold for every stat --------------------------------------------------

HAND_WRITTEN_MERGES = {
    "bench/metrics.py::Metrics.merged":
        "the entry point Run.run calls on mp payloads; one line over "
        "folded(), kept for its docstring on what rides a part",
    "placement/telemetry.py::TelemetryWindow.merged":
        "a frozen snapshot with no empty value to fold into: min start, "
        "max end over one epoch's per-engine windows",
}
"""Every ``merge_from`` / ``merged`` / ``timeline_snapshot`` left under
``src/repro``, with why ``repro._stats.fold`` does not serve it."""


def test_stats_merge_by_declaration_not_by_hand():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if not isinstance(scope, (ast.Module, ast.ClassDef)):
                continue
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and node.name in (
                        "merge_from", "merged", "timeline_snapshot"):
                    found.add(f"{path.relative_to(SRC).as_posix()}::"
                              f"{getattr(scope, 'name', '')}.{node.name}")
    assert found == set(HAND_WRITTEN_MERGES)


def test_the_timeline_names_no_stats_class_and_no_stats_field():
    """The sampler reads what its stats objects declare for the
    timeline; a new counter is a field, not an edit here."""
    from repro.bench import metrics
    from repro.obs import TimelineSampler
    from repro.placement import PlacementStats
    from repro.sched import SchedulerStats
    from repro.sim import NetworkStats
    from repro.storage import RecoveryStats
    sampled = (SchedulerStats, NetworkStats, RecoveryStats, PlacementStats,
               metrics.TenantTraffic)
    classes = {cls.__name__ for cls in sampled} | {
        "OpenLoopStats", "LatencyHistogram", "Metrics"}
    fields = {spec.name for cls in sampled
              for spec in dataclasses.fields(cls)}
    # Outcome.committed (the per-attempt verdict the sampler tallies)
    # shares its name with TenantTraffic.committed
    fields.discard("committed")
    tree = ast.parse((SRC / "obs" / "timeline.py").read_text())
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not classes & (names | imported)
    sampler = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "TimelineSampler")
    touched = {node.attr for node in ast.walk(sampler)
               if isinstance(node, ast.Attribute)}
    touched |= {node.value for node in ast.walk(sampler)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value.isidentifier()}
    assert not fields & touched
    parameters = set(inspect.signature(TimelineSampler).parameters)
    assert not {"network", "recovery", "placement", "metrics"} & parameters
