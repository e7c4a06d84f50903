"""Executed-surface census: which ``def``s under ``src/repro`` the real
programs enter.

    PYTHONPATH=src python tests/bench/executed_surface.py --record [--jobs N]
    PYTHONPATH=src python tests/bench/executed_surface.py        # report only

``--record`` runs every consumer of the library that is not a test (the
list is :func:`consumers`: each example, ``experiments all --quick``,
each step of CI's smoke job, the twelve paper cells, the conformance
programs on every backend and the four ``benchmarks/e2e`` workloads at
both trace levels) with a ``sitecustomize`` on ``PYTHONPATH``.  It
installs ``sys.setprofile`` and ``threading.setprofile``, so forked mp
workers (which inherit the profiler) and threads are traced as well, and
at exit writes the ``(file, first line, name)`` of every code object it
saw called — at ``os._exit`` too in a forked child, since
``multiprocessing`` ends one that way and it runs no ``atexit`` hook.  Those are resolved through the AST to ``module:qualname``
keys (a decorated def's code starts at its first decorator) and written
to ``executed_surface.json`` as ``entered``.  Its ``allow`` (key -> why
it stays) and ``fault`` (key -> the crash-only path it is) maps are kept
by hand; a re-record drops their entries that became entered or name no
def any more.  ``test_executed_surface.py`` is the lint: every def is on
exactly one list, and every entry names a def.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SURFACE = Path(__file__).with_name("executed_surface.json")
CI = ROOT / ".github" / "workflows" / "ci.yml"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_out = os.environ["EXECUTED_SURFACE_OUT"]
_prefix = os.environ["EXECUTED_SURFACE_PREFIX"]
_seen = {}  # id -> code object (kept alive, so ids stay unique)


def _profile(frame, event, arg, _seen=_seen):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    rows = {f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}"
            for c in _seen.values() if c.co_filename.startswith(_prefix)}
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "a") as fh:
        fh.write("".join(row + "\\n" for row in sorted(rows)))


def _dump_at_os_exit():
    # a forked multiprocessing child ends in os._exit: no atexit runs
    real_exit = os._exit

    def _exit(code):
        _dump()
        real_exit(code)

    os._exit = _exit


atexit.register(_dump)
os.register_at_fork(after_in_child=_dump_at_os_exit)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


# -- the def table ------------------------------------------------------------

def def_table(src: Path = SRC) -> dict[str, tuple[Path, int, int, str]]:
    """``module:qualname`` -> (file, first line, last line, name) of
    every ``def`` under ``src/repro``; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    table: dict[str, tuple[Path, int, int, str]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module}:{prefix}{child.name}"
                    if key in table:
                        raise ValueError(f"two defs are both {key}")
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    table[key] = (path, first, child.end_lineno, child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return table


def def_lines(table: dict, keys) -> int:
    return sum(table[k][2] - table[k][1] + 1 for k in keys)


# -- consumers ----------------------------------------------------------------

def _ci_smoke_steps(workdir: Path) -> list[tuple[str, list[str]]]:
    """Each ``run:`` step of CI's smoke job, its ``/tmp/`` paths moved
    into ``workdir`` and its ``python -c`` lines left out: those assert
    on a run's numbers (a quick mp cell can commit nothing in its window
    under the profiler) and import no ``repro``."""
    import yaml
    steps = yaml.safe_load(CI.read_text())["jobs"]["smoke"]["steps"]
    return [(f"ci: {step['name']}",
             ["bash", "-eo", "pipefail", "-c",
              without_asserts(step["run"]).replace("/tmp/", f"{workdir}/")])
            for step in steps if "run" in step]


def without_asserts(script: str) -> str:
    return "\n".join(line for line in script.splitlines()
                     if not line.lstrip().startswith("python -c "))


_CONFORMANCE = """\
from repro.bench.conformance import (
    run_conformance, run_migration_conformance, run_ycsb_conformance)
if __name__ == "__main__":
    for backend in ("sim", "aio", "mp"):
        for executor in ("2pl", "occ"):
            run_conformance(backend, executor)
        for scheduler in ("fifo", "conflict", None):
            run_ycsb_conformance(backend, "2pl", scheduler)
        run_migration_conformance(backend)
"""

E2E_WORKLOADS = ("tpcc_chiller_sim", "ycsb_hot_open_sim", "ycsb_wal_sim",
                 "ycsb_mp_tcp")


def consumers(workdir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every program the census traces, run from the
    repository root."""
    py = sys.executable
    out = [(f"example: {path.name}", [py, str(path)])
           for path in sorted((ROOT / "examples").glob("*.py"))]
    out.append(("experiments all --quick",
                [py, "-m", "repro.bench.experiments", "all", "--quick"]))
    out += _ci_smoke_steps(workdir)
    cells = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py")
                   if "def test_" in p.read_text())
    out.append((f"paper cells ({len(cells)})",
                [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-o", "python_files=bench_*.py", "--benchmark-disable",
                 *cells]))
    program = workdir / "conformance_programs.py"
    program.write_text(_CONFORMANCE)
    out.append(("conformance programs on sim/aio/mp", [py, str(program)]))
    for workload in E2E_WORKLOADS:
        for trace in (0, 1):
            out.append((f"e2e {workload} --trace {trace}",
                        [py, "benchmarks/e2e/run.py", "--workload", workload,
                         "--seconds", "5", "--trace", str(trace)]))
    return out


# -- recording ----------------------------------------------------------------

def _run_traced(name: str, argv: list[str], sitedir: Path,
                outdir: Path) -> tuple[str, int, float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(sitedir), str(SRC)])
    env["EXECUTED_SURFACE_OUT"] = str(outdir)
    env["EXECUTED_SURFACE_PREFIX"] = str(SRC / "repro") + os.sep
    env["TMPDIR"] = str(sitedir.parent)
    t0 = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    return name, done.returncode, time.monotonic() - t0, done.stderr[-2000:]


def entered_keys(outdir: Path, table: dict) -> set[str]:
    """Resolve every dumped ``(file, first line, name)`` to its def key."""
    by_site = {(str(path), first, name): key
               for key, (path, first, _last, name) in table.items()}
    entered = set()
    for dump in outdir.glob("*.txt"):
        for row in dump.read_text().splitlines():
            filename, line, name = row.split("\t")
            key = by_site.get((filename, int(line), name))
            if key is not None:  # lambdas, comprehensions, module bodies
                entered.add(key)
    return entered


def record(jobs: int) -> int:
    table = def_table()
    workdir = Path(tempfile.mkdtemp(prefix="executed-surface-"))
    sitedir = workdir / "site"
    outdir = workdir / "calls"
    sitedir.mkdir()
    outdir.mkdir()
    (sitedir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    runs = consumers(workdir)
    failed = []
    with ThreadPoolExecutor(jobs) as pool:
        for name, code, took, err in pool.map(
                lambda run: _run_traced(*run, sitedir, outdir), runs):
            print(f"{took:7.1f} s  exit {code}  {name}", flush=True)
            if code != 0:
                failed.append(name)
                print(err, file=sys.stderr)
    if failed:
        print(f"not recorded: {len(failed)} consumer(s) failed: {failed}",
              file=sys.stderr)
        return 1
    entered = entered_keys(outdir, table)
    old = load()
    surface = {"consumers": [name for name, _argv in runs],
               "entered": sorted(entered)}
    for group in ("allow", "fault"):
        kept = {}
        for key, why in old[group].items():
            if key in entered or key not in table:
                print(f"dropped from {group}: {key}")
            else:
                kept[key] = why
        surface[group] = dict(sorted(kept.items()))
    SURFACE.write_text(json.dumps(surface, indent=1) + "\n")
    print(f"wrote {SURFACE.relative_to(ROOT)}")
    report(surface, table)
    return 0


# -- the lint and the report --------------------------------------------------

def load(path: Path = SURFACE) -> dict:
    if not path.exists():
        return {"entered": [], "allow": {}, "fault": {}}
    return json.loads(path.read_text())


def lint(surface: dict, table: dict) -> list[str]:
    """Every def on exactly one list; every list entry a def."""
    lists = {"entered": set(surface["entered"]),
             "allow": set(surface["allow"]), "fault": set(surface["fault"])}
    problems = []
    for key in sorted(table):
        on = [name for name, keys in lists.items() if key in keys]
        if not on:
            problems.append(f"{key} is on no list: record the census, or "
                            f"put it on allow/fault with a reason")
        elif len(on) > 1:
            problems.append(f"{key} is on {' and '.join(on)}")
    for name, keys in lists.items():
        problems += [f"{name} entry {key} names no def (stale)"
                     for key in sorted(keys - table.keys())]
    return problems


def report(surface: dict, table: dict) -> None:
    listed = set(surface["entered"]) | set(surface["allow"]) \
        | set(surface["fault"])
    print(f"{len(table)} defs, {def_lines(table, table)} lines in def "
          f"bodies (nested defs counted in each enclosing def too)")
    for name in ("entered", "allow", "fault"):
        keys = [k for k in surface[name] if k in table]
        print(f"  {name:8} {len(keys):4} defs "
              f"{def_lines(table, keys):6} lines")
    unlisted = sorted(table.keys() - listed)
    print(f"  unlisted {len(unlisted):4} defs "
          f"{def_lines(table, unlisted):6} lines")
    for key in unlisted:
        path, first, last, _name = table[key]
        print(f"    {key}  ({path.relative_to(ROOT)}:{first}, "
              f"{last - first + 1} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="trace every consumer and rewrite 'entered'")
    parser.add_argument("--jobs", type=int, default=1,
                        help="consumers traced at once")
    args = parser.parse_args(argv)
    if args.record:
        return record(args.jobs)
    table = def_table()
    surface = load()
    report(surface, table)
    problems = lint(surface, table)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
