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
And every knob has a consumer: each config field, each CLI flag and each
literal default of a ``src/repro`` def stays settable only if some
caller that is no test passes it a value other than its default (a
non-literal counts); the rest are module constants that tests patch.
ARCHITECTURE.md's layer line is the real import graph.
``python tests/bench/test_single_path.py`` prints the census.
"""

import argparse
import ast
import dataclasses
import inspect
import re
import shlex
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

CI = ROOT / ".github" / "workflows" / "ci.yml"

DEPLOYMENT = {
    "MetricsHttpServer.host": "the interface the endpoint binds",
}
"""Settings that say where a run writes or listens (paths, ports, hosts,
directories), not how it behaves, and that no consumer sets: exempt from
the rule.  The other deployment knobs have consumers."""

PINNED_BY_BENCHMARK = {
    "RunConfig.mp_transport": "benchmarks/e2e/adapter.py passes the "
                              "default; goes with ROADMAP A(3)",
    "RunConfig.wal_group_size": "benchmarks/e2e/adapter.py passes the "
                                "default; goes with ROADMAP A(3)",
    "WalSpec.group_size": "benchmarks/e2e/probes.py passes the default; "
                          "goes with ROADMAP A(3)",
}
"""Values that fail the rule but that the benchmark, which no change
may edit, passes by name: each leaves when the benchmark next moves."""

RUN_FIELDS = {spec.name for spec in dataclasses.fields(RunConfig)}
SPECS = {cls.__name__ for cls in CONFIG_CLASSES if cls is not RunConfig}
NO_DEFAULT = object()


def default_of(spec: dataclasses.Field):
    return NO_DEFAULT if spec.default is dataclasses.MISSING \
        else spec.default


def is_literal(node: ast.AST) -> bool:
    """A number, string or bool (negated numbers too), or a tuple of
    these: what a default must be for the parameter census to count it."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Tuple):
        return all(map(is_literal, node.elts))
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (int, float, str))


def changes(value: ast.AST, default) -> bool:
    """Whether an argument passes something other than ``default``: a
    literal is compared, anything else is taken to vary."""
    return not is_literal(value) or default is NO_DEFAULT \
        or ast.literal_eval(value) != default


def names_set(path: Path) -> list[tuple[str, ast.AST]]:
    """``(name, value)`` for every keyword ``path`` passes to some call
    and every string key of a dict literal (an ``overrides`` mapping):
    how a ``RunConfig`` field is set."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword) and node.arg:
            found.append((node.arg, node.value))
        elif isinstance(node, ast.Dict):
            found += [(key.value, value)
                      for key, value in zip(node.keys, node.values)
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


def called_name(scope: ast.AST, node: ast.FunctionDef) -> str | None:
    """The name a call of ``node`` goes by: its own, or its class's
    for an ``__init__``; None for other dunders."""
    if node.name == "__init__" and isinstance(scope, ast.ClassDef):
        return scope.name
    return None if node.name.startswith("__") else node.name


def module_defs(paths: list[Path]):
    """``(path, scope, def)`` for every module- or class-level def."""
    for path in paths:
        tree = ast.parse(path.read_text())
        for scope in [tree] + [node for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef)]:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef):
                    yield path, scope, node


def signature(node: ast.FunctionDef) -> tuple[list[str], dict[str, ast.AST]]:
    """A def's parameters by position (``self`` / ``cls`` dropped) and
    the default of each that has one."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = dict(zip([arg.arg for arg in positional[
        len(positional) - len(args.defaults):]], args.defaults))
    defaults.update((arg.arg, value) for arg, value
                    in zip(args.kwonlyargs, args.kw_defaults)
                    if value is not None)
    names = [arg.arg for arg in positional + args.kwonlyargs
             if arg.arg not in ("self", "cls")]
    return names, defaults


def src_defs():
    """Over ``src``: function name -> the spec class it returns, and
    function name -> ``(parameters, defaults)``."""
    returns, params = {}, {}
    for path in TREES["src"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                made = spec_names(node.returns)
                if len(made) == 1:
                    returns[node.name] = made.pop()
                params.setdefault(node.name, signature(node))
    return returns, params


def literal_entries(expr: ast.AST | None) -> list[tuple[str, ast.AST]]:
    """The ``(key, value)`` pairs of a dict display or ``dict(k=v)``."""
    if isinstance(expr, ast.Dict):
        return [(key.value, value)
                for key, value in zip(expr.keys, expr.values)
                if isinstance(key, ast.Constant)]
    if isinstance(expr, ast.Call) and callee(expr) == "dict":
        return [(kw.arg, kw.value) for kw in expr.keywords if kw.arg]
    return []


HIGHER_ORDER = ("partial", "pedantic")
"""Calls that pass on their first argument's arguments:
``functools.partial(f, *args, **kwargs)`` and pytest-benchmark's
``benchmark.pedantic(f, args=(...), kwargs={...})``."""


def passed_arguments(call: ast.Call, names: list[str]) -> dict[str, ast.AST]:
    """``{parameter: argument}`` of ``call`` against ``names``; a
    higher-order call binds its target's parameters the same way."""
    args = call.args
    keywords = [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
    if callee(call) == "partial" and args:
        args = args[1:]
    elif callee(call) == "pedantic" and args:
        given = dict(keywords)
        args = getattr(given.get("args"), "elts", [])
        keywords = literal_entries(given.get("kwargs"))
    passed = {}
    for name, arg in zip(names, args):
        if isinstance(arg, ast.Starred):
            break
        passed[name] = arg
    passed.update(keywords)
    return passed


def reached(call: ast.Call) -> str:
    """The function a call reaches: a higher-order call's first
    argument."""
    if callee(call) in HIGHER_ORDER and call.args:
        first = call.args[0]
        return getattr(first, "id", None) or getattr(first, "attr", "")
    return callee(call)


def scan(path: Path, returns: dict[str, str], params: dict):
    """``(setters, calls)`` of one file.  A setter is ``(class, field,
    source, value)`` for a keyword given to a call that builds that
    spec class, to a ``replace`` of one, or through a ``**`` mapping
    passed to one; ``source`` names where a forwarded value comes from
    (``("run", field)`` for a ``RunConfig`` attribute, ``(function,
    parameter)`` for a parameter of the enclosing def), else None.  A
    call is ``(function, {parameter: argument})``, for tracing those
    forwards."""
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
            return literal_entries(expr) or mappings.get(
                getattr(expr, "id", None), [])

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
            cls = built(node)
            if cls is not None:
                for kw in node.keywords:
                    for field, value in ([(kw.arg, kw.value)] if kw.arg
                                         else entries(kw.value)):
                        setters.append((cls, field, source(value), value))
            name = reached(node)
            names, _ = params.get(name, ([], {}))
            calls.append((name, passed_arguments(node, names)))
    return setters, calls


def flag_actions() -> dict[str, argparse.Action]:
    """``--flag`` -> its argparse action, from the parser itself."""
    return {option: action
            for action in experiments.build_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")}


def flag_dests() -> dict[str, str]:
    """``--flag`` -> the name it sets."""
    return {flag: action.dest for flag, action in flag_actions().items()}


def flags_typed_in_ci(text: str | None = None) -> list[tuple[str, object]]:
    """``(flag, value)`` for every ``--flag`` a CI command hands the
    experiments CLI: the value it parses to (``True`` for a switch)."""
    text = CI.read_text() if text is None else text
    actions = flag_actions()
    typed = []
    for line in text.splitlines():
        if "repro.bench.experiments" not in line:
            continue
        words = shlex.split(line.strip().lstrip("!"))
        for at, word in enumerate(words):
            action = actions.get(word)
            if action is None:
                continue
            if action.nargs == 0:
                typed.append((word, action.const))
            else:
                typed.append((word, (action.type or str)(words[at + 1])))
    return typed


def flag_default(action, run_defaults: dict):
    """What a run gets when the flag is not typed: the ``RunConfig``
    field's default for an override, else the parser's own."""
    if action.dest in run_defaults:
        return run_defaults[action.dest]
    return NO_DEFAULT if action.default is argparse.SUPPRESS \
        else action.default


def census(trees: dict[str, list[Path]] = TREES, ci: str | None = None,
           run_config: type = RunConfig) -> dict[str, dict[str, int]]:
    """name -> setters per tree, for every config field and CLI flag.
    A setter counts only where it passes a value other than the
    default (a non-literal always counts).  A field's own module does
    not count: defaults are not callers.  A ``RunConfig`` field counts
    every keyword and overrides key of its name; a spec field only the
    keywords given to its own class (:func:`scan`), and ``via`` counts
    the ``src`` ones that forward a value a consumer chose."""
    returns, params = src_defs()
    set_in = {tree: {path: names_set(path) for path in paths}
              for tree, paths in trees.items()}
    scanned = {tree: {path: scan(path, returns, params) for path in paths}
               for tree, paths in trees.items()}
    actions, typed = flag_actions(), flags_typed_in_ci(ci)
    run_defaults = {spec.name: default_of(spec)
                    for spec in dataclasses.fields(run_config)}
    rows: dict[str, dict[str, int]] = {}
    home = Path(inspect.getfile(RunConfig))
    for name, default in run_defaults.items():
        row = rows[f"RunConfig.{name}"] = {
            tree: sum(field == name and changes(value, default)
                      for path, pairs in by_path.items() if path != home
                      for field, value in pairs)
            for tree, by_path in set_in.items()}
        row["ci"] = sum(actions[flag].dest == name and value != default
                        for flag, value in typed)

    def consumed(name: str) -> bool:
        return any(rows[name].get(tree) for tree in CONSUMERS)

    def fed(source) -> bool:
        """Whether a consumer chose the value ``source`` forwards: a
        consumer-set ``RunConfig`` field, or a parameter some consumer
        passes a value other than its default (or ``src`` passes a
        consumer-set field into)."""
        if source[0] == "run":
            return consumed(f"RunConfig.{source[1]}")
        function, parameter = source
        default = params.get(function, ([], {}))[1].get(parameter)
        for tree, by_path in scanned.items():
            for _, calls in by_path.values():
                for name, passed in calls:
                    if name != function or parameter not in passed:
                        continue
                    value = passed[parameter]
                    if tree in CONSUMERS and (default is None or changes(
                            value, ast.literal_eval(default)
                            if is_literal(default) else NO_DEFAULT)):
                        return True
                    if tree == "src" and isinstance(value, ast.Attribute) \
                            and value.attr in RUN_FIELDS \
                            and consumed(f"RunConfig.{value.attr}"):
                        return True
        return False

    for cls in CONFIG_CLASSES[1:]:
        home = Path(inspect.getfile(cls))
        for spec in dataclasses.fields(cls):
            key, default = (cls.__name__, spec.name), default_of(spec)
            row = rows[f"{cls.__name__}.{spec.name}"] = {
                tree: sum((made, field) == key and changes(value, default)
                          for path, (setters, _) in by_path.items()
                          if path != home
                          for made, field, _, value in setters)
                for tree, by_path in scanned.items()}
            row["ci"] = 0
            row["via"] = sum(
                (made, field) == key and source is not None and fed(source)
                for setters, _ in scanned["src"].values()
                for made, field, source, _ in setters)
    for flag, action in actions.items():
        default = flag_default(action, run_defaults)
        rows[flag] = {"ci": sum(typed_flag == flag and value != default
                                for typed_flag, value in typed)}
    return rows


def test_every_config_field_is_set_outside_its_own_module():
    unset = [name for name, row in census().items()
             if not name.startswith("--") and not sum(row.values())
             and name not in DEPLOYMENT and name not in PINNED_BY_BENCHMARK]
    assert not unset, unset


def idle_knobs(rows: dict[str, dict[str, int]]) -> list[str]:
    """Fields and flags no consumer sets to a value of its own, the
    deployment and benchmark-pinned entries aside."""
    return [name for name, row in rows.items()
            if not any(row.get(tree) for tree in CONSUMERS)
            and name not in DEPLOYMENT and name not in PINNED_BY_BENCHMARK]


def test_every_run_config_field_and_flag_has_a_consumer_that_is_no_test():
    rows = census()
    idle = [name for name in idle_knobs(rows)
            if name.startswith(("RunConfig.", "--"))]
    assert not idle, idle
    stale = [name for name in PINNED_BY_BENCHMARK
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


def test_a_caller_passing_the_default_is_no_consumer(tmp_path):
    """CI once kept ``--max-restarts`` alive by typing its default: a
    setter counts only where it passes a value of its own."""
    default, own = tmp_path / "default.py", tmp_path / "own.py"
    default.write_text("PlacementSpec(min_gain=3.0)\n")
    own.write_text("PlacementSpec(min_gain=5.0)\n")
    field = "PlacementSpec.min_gain"
    assert field in idle_knobs(census({**TREES, "benchmarks": [default]}))
    assert field not in idle_knobs(census({**TREES, "benchmarks": [own]}))
    ci = CI.read_text().replace("--chaos-after 0", "--chaos-after 0.5")
    assert "--chaos-after" in idle_knobs(census(ci=ci))


def test_a_field_only_tests_set_fails_the_census():
    """Planting ``RunConfig.health_rules`` (only tests set it) back."""
    planted = dataclasses.make_dataclass(
        "RunConfig", [("health_rules", object, None)], bases=(RunConfig,))
    assert "RunConfig.health_rules" in idle_knobs(
        census(run_config=planted))


def test_run_config_does_not_grow():
    assert len(dataclasses.fields(RunConfig)) <= 32


def test_config_classes_flags_and_the_allow_list_do_not_grow():
    assert sum(len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES) <= 52
    assert len(flag_dests()) <= 22
    assert len(DEPLOYMENT) <= 1 and len(PINNED_BY_BENCHMARK) <= 3


# -- parameter census ---------------------------------------------------------

def literal_parameters(paths: list[Path] = TREES["src"]):
    """``(row, called as, parameter, position, default)`` for every
    parameter of a module- or class-level def under ``src`` whose
    default is a literal."""
    for path, scope, node in module_defs(paths):
        name = called_name(scope, node)
        if name is None:
            continue
        names, defaults = signature(node)
        positional = [arg.arg for arg in node.args.posonlyargs
                      + node.args.args if arg.arg not in ("self", "cls")]
        owner = f"{scope.name}." if isinstance(scope, ast.ClassDef) \
            and name != scope.name else ""
        for parameter, default in defaults.items():
            if is_literal(default):
                yield (f"{owner}{name}.{parameter}", name, parameter,
                       positional.index(parameter)
                       if parameter in positional else None,
                       ast.literal_eval(default))


def parameter_census(trees: dict[str, list[Path]] = TREES,
                     ) -> dict[str, dict[str, int]]:
    """row -> callers per tree that pass the parameter a value other
    than its default, over the parameters :func:`literal_parameters`
    finds; ``called`` counts the call sites outside the tests at all."""
    calls: dict[str, list[tuple[str, ast.Call]]] = {}
    for tree, paths in trees.items():
        if tree == "figures":
            continue
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    calls.setdefault(reached(node), []).append((tree, node))
    rows = {}
    for row, name, parameter, position, default in literal_parameters(
            trees["src"]):
        counts = rows.setdefault(row, {"called": 0})
        for tree, node in calls.get(name, []):
            counts["called"] += tree != "tests"
            names = [] if position is None \
                else [None] * position + [parameter]
            value = passed_arguments(node, names).get(parameter)
            if value is not None and changes(value, default):
                counts[tree] = counts.get(tree, 0) + 1
    return rows


def idle_parameters(rows: dict[str, dict[str, int]]) -> list[str]:
    """Parameters of defs something outside the tests calls that no
    such caller passes a value of its own, the deployment ones aside."""
    return [row for row, counts in rows.items()
            if counts["called"] and row not in DEPLOYMENT
            and not any(count for tree, count in counts.items()
                        if tree not in ("called", "tests"))]


def test_every_literal_default_parameter_has_a_caller_that_is_no_test():
    """A parameter no caller outside the tests varies is a module
    constant (tests patch it) or, if it only picks a branch nobody
    takes, gone with the branch."""
    rows = parameter_census()
    idle = idle_parameters(rows)
    assert not idle, idle
    stale = [row for row in DEPLOYMENT
             if any(count for tree, count in rows[row].items()
                    if tree not in ("called", "tests"))]
    assert not stale, f"{stale} have a consumer now: take them off the list"


def test_an_unpassed_parameter_fails_the_census(tmp_path):
    module, caller = tmp_path / "graph.py", tmp_path / "caller.py"
    module.write_text("def part_graph(graph, k, n_tries=4):\n    pass\n")
    caller.write_text("part_graph(g, 2)\npart_graph(g, 2, n_tries=4)\n")
    trees = {**TREES, "src": [module], "benchmarks": [caller]}
    assert "part_graph.n_tries" in idle_parameters(parameter_census(trees))
    caller.write_text("part_graph(g, 2, 8)\n")
    assert "part_graph.n_tries" not in idle_parameters(
        parameter_census(trees))


@pytest.mark.parametrize("passing, default_only", [
    ("functools.partial(part_graph, g, 2, n_tries=8)()",
     "functools.partial(part_graph, g, 2, n_tries=4)()"),
    ("partial(part_graph, g, 2, 8)()", "partial(part_graph, g, 2)()"),
    ("benchmark.pedantic(part_graph, kwargs={'n_tries': 8})",
     "benchmark.pedantic(part_graph, kwargs={'n_tries': 4})"),
    ("benchmark.pedantic(part_graph, args=(g, 2, 8), rounds=1)",
     "benchmark.pedantic(part_graph, args=(g, 2), kwargs=dict(k=2))"),
])
def test_a_value_passed_through_a_higher_order_call_counts(
        tmp_path, passing, default_only):
    """``partial`` and ``pedantic`` pass their target's arguments on: a
    value given through them keeps the parameter, a default does not."""
    module, caller = tmp_path / "graph.py", tmp_path / "caller.py"
    module.write_text("def part_graph(graph, k, n_tries=4):\n    pass\n")
    trees = {**TREES, "src": [module], "benchmarks": [caller]}
    caller.write_text(passing + "\n")
    assert "part_graph.n_tries" not in idle_parameters(
        parameter_census(trees))
    caller.write_text(default_only + "\n")
    assert "part_graph.n_tries" in idle_parameters(parameter_census(trees))


# -- the docs name only real knobs --------------------------------------------

def script_flags(path: Path) -> set[str]:
    """The ``--flag`` names a script's ``add_argument`` calls declare."""
    return {arg.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and callee(node) == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            and arg.value.startswith("--")}


def unresolved_doc_knobs(text: str) -> list[str]:
    """Every backticked ``--flag`` and ``RunConfig.<name>`` in ``text``
    that no CLI of the repo declares and ``RunConfig`` does not have."""
    flags = set(flag_actions()) | {"--help"} \
        | script_flags(ROOT / "benchmarks" / "pairs.py") \
        | script_flags(ROOT / "tests" / "bench" / "executed_surface.py")
    prose = re.sub(r"^```.*?^```[^\n]*$", "", text, flags=re.S | re.M)
    missing = []
    for quoted in re.findall(r"`([^`]+)`", prose):
        missing += [flag for flag in re.findall(
            r"(?<![\w-])--[a-z][a-z-]*", quoted) if flag not in flags]
        missing += [f"RunConfig.{name}" for name in re.findall(
            r"\bRunConfig\.(\w+)", quoted)
            if not hasattr(RunConfig, name) and name not in RUN_FIELDS]
    return missing


def test_architecture_names_only_real_flags_and_fields():
    missing = unresolved_doc_knobs((ROOT / "ARCHITECTURE.md").read_text())
    assert not missing, missing


def test_a_retired_knob_in_the_docs_fails_the_lint():
    text = (ROOT / "ARCHITECTURE.md").read_text() \
        + "\n`--max-restarts 1` and `RunConfig.health_rules`\n"
    assert unresolved_doc_knobs(text) == ["--max-restarts",
                                          "RunConfig.health_rules"]


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
          len(DEPLOYMENT), "deployment and", len(PINNED_BY_BENCHMARK),
          "benchmark-pinned exempt")
    trees = (*TREES, "ci", "via")
    print(f"{'knob (non-default setters per tree)':<42}"
          + "".join(f"{tree:>11}" for tree in trees))
    for name, row in census().items():
        print(f"{name:<42}"
              + "".join(f"{row.get(tree, '-'):>11}" for tree in trees))
    trees = ("called", "src", "benchmarks", "examples", "tests")
    print(f"\n{'parameter (non-default callers per tree)':<52}"
          + "".join(f"{tree:>11}" for tree in trees))
    for name, row in parameter_census().items():
        print(f"{name:<52}"
              + "".join(f"{row.get(tree, 0):>11}" for tree in trees))
