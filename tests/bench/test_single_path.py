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
And every knob has a consumer: each config field is set by some caller
outside the module that defines it, each ``RunConfig`` field and each
CLI flag by one that is not a test, and ARCHITECTURE.md's layer line is
the real import graph.  ``python tests/bench/test_single_path.py``
prints the census.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.bench import RunConfig, experiments
from repro.core import ChillerPartitionerConfig
from repro.partitioning import SchismConfig
from repro.placement import PlacementSpec
from repro.sched import SchedulerSpec
from repro.storage import WalSpec
from repro.traffic import ArrivalSpec

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
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


# -- knob census --------------------------------------------------------------

CONFIG_CLASSES = (RunConfig, SchedulerSpec, PlacementSpec, WalSpec,
                  ArrivalSpec, ChillerPartitionerConfig, SchismConfig)

TREES = {"src": sorted(SRC.rglob("*.py")),
         "figures": [SRC / "bench" / "experiments.py",
                     SRC / "bench" / "conformance.py"],
         "benchmarks": sorted((ROOT / "benchmarks").rglob("*.py")),
         "examples": sorted((ROOT / "examples").glob("*.py")),
         "tests": sorted((ROOT / "tests").rglob("*.py"))}
"""Where a knob can be set.  ``figures`` (a subset of ``src``) is the
part of the program that is itself a caller: the paper's sweeps and the
conformance programs."""

CONSUMERS = ("figures", "benchmarks", "examples", "ci", "via")
"""Setters that are neither a test nor plumbing that forwards a value;
``via`` counts the plumbing whose value a consumer chose (a ``RunConfig``
field or a parameter that a consumer sets)."""

NO_CONSUMER_YET = {
    "RunConfig.health_rules":
        "test seam: the only way to reach the fatal-rule abort path "
        "without wedging a real run",
    "ChillerPartitionerConfig.load_metric":
        '"records" reproduces the paper\'s Fig. 5 worked example '
        "(tests/core/test_paper_examples.py)",
}
"""Config fields and CLI flags only tests set, each with why it stays.
Fault-handling knobs are not here: CI's smoke job types them."""

RUN_FIELDS = {spec.name for spec in dataclasses.fields(RunConfig)}
SPECS = {cls.__name__ for cls in CONFIG_CLASSES if cls is not RunConfig}


def names_set(path: Path) -> list[str]:
    """Every name ``path`` passes to some call as a keyword or writes
    as a string key of a dict literal (an ``overrides`` mapping): how a
    ``RunConfig`` field is set."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword) and node.arg:
            found.append(node.arg)
        elif isinstance(node, ast.Dict):
            found += [key.value for key in node.keys
                      if isinstance(key, ast.Constant)
                      and isinstance(key.value, str)]
    return found


def own_nodes(scope: ast.AST):
    """The nodes of ``scope``, not descending into nested defs."""
    for child in ast.iter_child_nodes(scope):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            yield child
            yield from own_nodes(child)


def spec_names(annotation: ast.AST | None) -> set[str]:
    """The spec classes an annotation names (quoted ones too)."""
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return {node.id for node in ast.walk(annotation or ast.Pass())
            if isinstance(node, ast.Name)} & SPECS


def callee(call: ast.Call) -> str:
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", "")


def src_defs() -> tuple[dict[str, str], dict[str, list[str]]]:
    """Over ``src``: function name -> the spec class it returns, and
    function name -> its parameters (``self`` / ``cls`` dropped)."""
    returns, params = {}, {}
    for path in TREES["src"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                made = spec_names(node.returns)
                if len(made) == 1:
                    returns[node.name] = made.pop()
                params.setdefault(node.name, [
                    arg.arg for arg in node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs if arg.arg not in ("self", "cls")])
    return returns, params


def scan(path: Path, returns: dict[str, str], params: dict[str, list[str]]):
    """``(setters, calls)`` of one file.  A setter is ``(class, field,
    source)`` for a keyword given to a call that builds that spec class,
    to a ``replace`` of one, or through a ``**`` mapping passed to one;
    ``source`` names where a forwarded value comes from (``("run",
    field)`` for a ``RunConfig`` attribute, ``(function, parameter)``
    for a parameter of the enclosing def), else None.  A call is
    ``(function, {parameter: argument})``, for tracing those forwards."""
    setters, calls = [], []
    tree = ast.parse(path.read_text())
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)]
    for scope in scopes:
        args = scope.args.posonlyargs + scope.args.args \
            + scope.args.kwonlyargs if scope is not tree else []
        kinds = {arg.arg: spec_names(arg.annotation) for arg in args}
        kinds = {name: made.pop() for name, made in kinds.items()
                 if len(made) == 1}
        mappings: dict[str, list[tuple[str, ast.AST]]] = {}

        def built(call: ast.Call) -> str | None:
            """The spec class ``call`` builds: a constructor or a
            ``replace`` of a spec."""
            name = callee(call)
            if name in SPECS:
                return name
            if name == "replace" and call.args:
                return made(call.args[0])
            return None

        def made(expr: ast.AST) -> str | None:
            """The spec class ``expr`` evaluates to, if it is known."""
            if isinstance(expr, ast.Name):
                return kinds.get(expr.id)
            if isinstance(expr, ast.BoolOp):
                return next(filter(None, map(made, expr.values)), None)
            if isinstance(expr, ast.Call):
                return built(expr) or returns.get(callee(expr))
            return None

        def source(expr: ast.AST):
            if isinstance(expr, ast.Name) and expr.id in {a.arg
                                                          for a in args}:
                return (scope.name, expr.id)
            if isinstance(expr, ast.Attribute) and expr.attr in RUN_FIELDS:
                return ("run", expr.attr)
            return None

        def entries(expr: ast.AST) -> list[tuple[str, ast.AST]]:
            if isinstance(expr, ast.Dict):
                return [(key.value, value)
                        for key, value in zip(expr.keys, expr.values)
                        if isinstance(key, ast.Constant)]
            if isinstance(expr, ast.Call) and callee(expr) == "dict":
                return [(kw.arg, kw.value) for kw in expr.keywords
                        if kw.arg]
            return mappings.get(getattr(expr, "id", None), [])

        nodes = list(own_nodes(scope))
        for node in nodes:       # binding pass: spec-typed names, mappings
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if made(node.value):
                        kinds[target.id] = made(node.value)
                    if entries(node.value):
                        mappings[target.id] = entries(node.value)
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and isinstance(target.slice, ast.Constant):
                    mappings.setdefault(target.value.id, []).append(
                        (target.slice.value, node.value))
            elif isinstance(node, ast.Call) and callee(node) == "update" \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name):
                mappings.setdefault(node.func.value.id, []).extend(
                    (kw.arg, kw.value) for kw in node.keywords if kw.arg)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name, cls = callee(node), built(node)
            if cls is not None:
                for kw in node.keywords:
                    for field, value in ([(kw.arg, kw.value)] if kw.arg
                                         else entries(kw.value)):
                        setters.append((cls, field, source(value)))
            names = params.get(name, [])
            passed = dict(zip(names, node.args))
            passed.update((kw.arg, kw.value) for kw in node.keywords
                          if kw.arg)
            calls.append((name, passed))
    return setters, calls


def flag_dests() -> dict[str, str]:
    """``--flag`` -> the name it sets, from the parser itself."""
    return {option: action.dest
            for action in experiments.build_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")}


def flags_typed_in_ci() -> list[str]:
    """Every ``--flag`` a CI command hands the experiments CLI."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return [flag for line in text.splitlines()
            if "repro.bench.experiments" in line
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)]


def census(trees: dict[str, list[Path]] = TREES,
           ) -> dict[str, dict[str, int]]:
    """name -> setters per tree, for every config field and CLI flag.
    A field's own module does not count: defaults are not callers.  A
    ``RunConfig`` field counts every keyword and overrides key of its
    name; a spec field only the keywords given to its own class
    (:func:`scan`), and ``via`` counts the ``src`` ones that forward a
    value a consumer chose."""
    returns, params = src_defs()
    set_in = {tree: {path: names_set(path) for path in paths}
              for tree, paths in trees.items()}
    scanned = {tree: {path: scan(path, returns, params) for path in paths}
               for tree, paths in trees.items()}
    dests, typed = flag_dests(), flags_typed_in_ci()
    rows: dict[str, dict[str, int]] = {}
    for spec in dataclasses.fields(RunConfig):
        home = Path(inspect.getfile(RunConfig))
        row = rows[f"RunConfig.{spec.name}"] = {
            tree: sum(names.count(spec.name)
                      for path, names in by_path.items() if path != home)
            for tree, by_path in set_in.items()}
        row["ci"] = sum(dests.get(flag) == spec.name for flag in typed)

    def consumed(name: str) -> bool:
        return any(rows[name].get(tree) for tree in CONSUMERS)

    def fed(source) -> bool:
        """Whether a consumer chose the value ``source`` forwards: a
        consumer-set ``RunConfig`` field, or a parameter some consumer
        passes (or ``src`` passes a consumer-set field into)."""
        if source[0] == "run":
            return consumed(f"RunConfig.{source[1]}")
        function, parameter = source
        for tree, by_path in scanned.items():
            for _, calls in by_path.values():
                for name, passed in calls:
                    if name != function or parameter not in passed:
                        continue
                    value = passed[parameter]
                    if tree in CONSUMERS or (
                            tree == "src" and isinstance(value, ast.Attribute)
                            and value.attr in RUN_FIELDS
                            and consumed(f"RunConfig.{value.attr}")):
                        return True
        return False

    for cls in CONFIG_CLASSES[1:]:
        home = Path(inspect.getfile(cls))
        for spec in dataclasses.fields(cls):
            key = (cls.__name__, spec.name)
            row = rows[f"{cls.__name__}.{spec.name}"] = {
                tree: sum((made, field) == key
                          for path, (setters, _) in by_path.items()
                          if path != home
                          for made, field, _ in setters)
                for tree, by_path in scanned.items()}
            row["ci"] = 0
            row["via"] = sum(
                (made, field) == key and source is not None and fed(source)
                for setters, _ in scanned["src"].values()
                for made, field, source in setters)
    for flag in dests:
        rows[flag] = {"ci": typed.count(flag)}
    return rows


def test_every_config_field_is_set_outside_its_own_module():
    unset = [name for name, row in census().items()
             if not name.startswith("--") and not sum(row.values())]
    assert not unset, unset


def idle_knobs(rows: dict[str, dict[str, int]]) -> list[str]:
    """Fields and flags no consumer sets, the allow-list aside."""
    return [name for name, row in rows.items()
            if not any(row.get(tree) for tree in CONSUMERS)
            and name not in NO_CONSUMER_YET]


def test_every_run_config_field_and_flag_has_a_consumer_that_is_no_test():
    rows = census()
    idle = [name for name in idle_knobs(rows)
            if name.startswith(("RunConfig.", "--"))]
    assert not idle, idle
    stale = [name for name in NO_CONSUMER_YET
             if any(rows[name].get(tree) for tree in CONSUMERS)]
    assert not stale, f"{stale} have a consumer now: take them off the list"


def test_every_spec_field_has_a_consumer_that_is_no_test():
    """The ``RunConfig`` rule, per spec class: a keyword counts only
    where it builds that class, so a namesake elsewhere sets nothing."""
    idle = [name for name in idle_knobs(census())
            if not name.startswith(("RunConfig.", "--"))]
    assert not idle, idle


def test_a_namesake_keyword_sets_no_spec_field(tmp_path):
    """``StatsService(lock_window_us=...)`` once kept a
    ``PlacementSpec`` field alive: a keyword counts only where its own
    class is built, so a field set only under a colliding name fails."""
    namesake, own = tmp_path / "namesake.py", tmp_path / "own.py"
    namesake.write_text("StatsService(min_gain=6.0)\n")
    own.write_text("PlacementSpec(min_gain=6.0)\n")
    field = "PlacementSpec.min_gain"
    assert field in idle_knobs(census({**TREES, "benchmarks": [namesake]}))
    assert field not in idle_knobs(census({**TREES, "benchmarks": [own]}))


def test_run_config_does_not_grow():
    assert len(dataclasses.fields(RunConfig)) <= 35


def test_config_classes_flags_and_the_allow_list_do_not_grow():
    assert sum(len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES) <= 56
    assert len(flag_dests()) <= 23
    assert len(NO_CONSUMER_YET) <= 2


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


def layer_line() -> list[set[str]]:
    """ARCHITECTURE.md's layer line, as ranks of package names."""
    text = (ROOT / "ARCHITECTURE.md").read_text()
    line = next(line for line in text.splitlines()
                if "→" in line and line.rstrip().endswith("bench"))
    return [{name.strip() for name in rank.split("/")}
            for rank in line.split("→")]


PACKAGES = sorted(path.name for path in SRC.iterdir()
                  if (path / "__init__.py").exists())


@pytest.mark.parametrize("package", PACKAGES)
def test_each_package_imports_only_from_the_layers_before_it(package):
    ranks = layer_line()
    own = next((i for i, rank in enumerate(ranks) if package in rank), None)
    assert own is not None, f"{package} is missing from the layer line"
    allowed = set().union(*ranks[:own + 1])
    above = sorted({f"{path.name}: {name}"
                    for path in sorted((SRC / package).glob("*.py"))
                    for name in imported_modules(path)
                    if name.startswith("repro.") and "." in name[6:]
                    and name.split(".")[1] in PACKAGES
                    and name.split(".")[1] not in allowed})
    assert not above, above


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
    assert not (ROOT / "BENCH_BASELINE.json").exists()
    assert not (ROOT / "benchmarks" / "check_perf_regression.py").exists()
    # nothing the program or a figure script does depends on the
    # environment, and none feeds a pytest-benchmark side channel
    for path in sorted(SRC.rglob("*.py")) \
            + sorted((ROOT / "benchmarks").glob("*.py")):
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


if __name__ == "__main__":
    for cls in CONFIG_CLASSES:
        print(f"{cls.__name__}: {len(dataclasses.fields(cls))} fields")
    print("total:", sum(len(dataclasses.fields(cls))
                        for cls in CONFIG_CLASSES),
          "settable values;", len(flag_dests()), "CLI flags;",
          len(NO_CONSUMER_YET), "allow-listed")
    trees = (*TREES, "ci", "via")
    print(f"{'knob (setters per tree)':<42}"
          + "".join(f"{tree:>11}" for tree in trees))
    for name, row in census().items():
        print(f"{name:<42}"
              + "".join(f"{row.get(tree, '-'):>11}" for tree in trees))
