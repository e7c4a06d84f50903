"""Lint: every ``def`` under ``src/repro`` is entered by a real program,
or says why it stays.

``executed_surface.json`` is recorded by ``PYTHONPATH=src python
tests/bench/executed_surface.py --record``, which traces every consumer
of the library that is not a test.  A def that no consumer enters is
deleted with its tests, or it goes on ``allow`` (with why it stays) or
``fault`` (a crash-only path: deterministic fault injection's work
list).  ``python tests/bench/executed_surface.py`` prints the census.
"""

from pathlib import Path

import yaml
from executed_surface import CI, _ci_smoke_steps, def_table, lint, load


def test_every_def_is_on_one_list_and_every_entry_names_a_def():
    problems = lint(load(), def_table())
    assert not problems, "\n".join(problems)


def test_every_allow_and_fault_entry_has_a_reason():
    surface = load()
    for group in ("allow", "fault"):
        blank = [key for key, why in surface[group].items()
                 if not why.strip()]
        assert not blank, f"{group} entries without a reason: {blank}"


def _tree(tmp_path: Path, source: str) -> Path:
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "mod.py").write_text(source)
    return tmp_path


def test_lint_fails_an_unlisted_def(tmp_path):
    table = def_table(_tree(tmp_path, "def used():\n    pass\n\n"
                                      "def new():\n    pass\n"))
    surface = {"entered": ["repro.mod:used"], "allow": {}, "fault": {}}
    assert lint(surface, table) == [
        "repro.mod:new is on no list: record the census, or put it on "
        "allow/fault with a reason"]


def test_lint_fails_a_stale_entry_and_a_def_on_two_lists(tmp_path):
    table = def_table(_tree(tmp_path, "class A:\n    @property\n"
                                      "    def x(self):\n"
                                      "        def inner():\n"
                                      "            pass\n"))
    assert set(table) == {"repro.mod:A.x", "repro.mod:A.x.<locals>.inner"}
    surface = {"entered": ["repro.mod:A.x", "repro.mod:gone"],
               "allow": {"repro.mod:A.x.<locals>.inner": "why"},
               "fault": {"repro.mod:A.x": "why"}}
    assert lint(surface, table) == [
        "repro.mod:A.x is on entered and fault",
        "entered entry repro.mod:gone names no def (stale)"]


def test_the_recorder_runs_every_ci_line_but_the_asserts(tmp_path):
    """CI's ``python -c`` lines check a run's numbers and import no
    ``repro``, so the census loses nothing by leaving them out, and a
    cell its profiler slows cannot fail the record."""
    steps = yaml.safe_load(CI.read_text())["jobs"]["smoke"]["steps"]
    scripts = [step["run"] for step in steps if "run" in step]
    asserts = [line for script in scripts for line in script.splitlines()
               if line.lstrip().startswith("python -c ")]
    assert asserts and not [line for line in asserts if "repro" in line]
    recorded = [argv[-1] for _name, argv in _ci_smoke_steps(tmp_path)]
    assert len(recorded) == len(scripts)
    for script, ran in zip(scripts, recorded):
        kept = [line for line in script.splitlines() if line not in asserts]
        assert ran.splitlines() == [
            line.replace("/tmp/", f"{tmp_path}/") for line in kept]
