"""Import lint, wall-clock slice: one runtime, one wire, one supervisor.

``mp_runtime.py`` was cut along its three concerns; this keeps the cut
clean.  The runtime + cluster module (``sim/wallclock.py``) knows no
sockets and no processes, the transport knows no supervisor, and only
the bench harness, which launches mp runs, reaches for the supervisor
or the transport.  The duplicated pieces the merge removed
stay single, and the tasks and queues the wire path shed stay gone.
"""

import ast
import re
from pathlib import Path

import repro
import repro.sim

SRC = Path(repro.__file__).parent
SIM = SRC / "sim"
PROCESS_SIDE = {"repro.sim.supervisor", "repro.sim.transport"}
MAY_LAUNCH = {SRC / "bench" / "harness.py"}


def imports_of(path: Path, source: str | None = None) -> set[str]:
    """Absolute dotted names ``path`` imports: each module, and
    ``module.name`` for each name taken from it."""
    package = path.relative_to(SRC.parent).parts[:-1]
    found = set()
    tree = ast.parse(path.read_text() if source is None else source)
    for node in ast.walk(tree):
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


def home_of(name: str) -> str:
    """The module a dotted import really comes from: names re-exported
    by the ``repro.sim`` package resolve to where they are defined."""
    package, _, attr = name.rpartition(".")
    if package == "repro.sim" and not (SIM / f"{attr}.py").exists():
        return getattr(getattr(repro.sim, attr, None), "__module__", name)
    return name


def reaches(path: Path, modules: set[str], source: str | None = None):
    return sorted(name for name in imports_of(path, source)
                  if any((home_of(name) + ".").startswith(m + ".")
                         for m in modules))


def test_runtime_and_cluster_know_no_sockets_and_no_processes():
    banned = {"socket", "multiprocessing"} | PROCESS_SIDE
    assert not reaches(SIM / "wallclock.py", banned)


def test_transport_does_not_know_the_supervisor():
    assert not reaches(SIM / "transport.py", {"repro.sim.supervisor"})


def test_only_the_run_launchers_reach_the_process_side():
    found = [f"{path.relative_to(SRC)}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if SIM not in path.parents and path not in MAY_LAUNCH
             for name in reaches(path, PROCESS_SIDE)]
    assert not found, "\n".join(found)


def test_the_lint_sees_every_spelling():
    inside = SRC / "obs" / "health.py"
    for source in ("from ..sim.supervisor import run_mp_workers",
                   "from ..sim import supervisor",
                   "from ..sim import run_mp_workers",
                   "from repro.sim import MpRunError, Cluster",
                   "import repro.sim.transport",
                   "from ..sim import TcpTransport",
                   "def f():\n    from ..sim.transport import bind_listener"):
        assert reaches(inside, PROCESS_SIDE, source), source
    assert not reaches(inside, PROCESS_SIDE,
                       "from ..sim import Cluster, WorkerCluster, FrameCodec")


def test_the_merged_pieces_stay_single():
    sources = "\n".join(path.read_text()
                        for path in sorted(SRC.rglob("*.py")))
    assert len(re.findall(r"^\s+async def _drain\b", sources, re.M)) == 1
    # the wire path has no task, queue or stream reader between ``send``
    # and the socket, or between the socket and dispatch
    transport = (SIM / "transport.py").read_text()
    for gone in ("asyncio.Queue", "StreamReader", "start_server",
                 "open_connection", "create_task"):
        assert gone not in transport, gone


def test_one_start_method_and_no_thread_in_the_forking_parent():
    """mp workers fork from a parent that runs no thread of its own
    while it supervises: a lock another thread holds at the fork stays
    held in the child for good."""
    threads = {"threading", "_thread", "concurrent", "http.server",
               "socketserver"}
    for path in (SIM / "supervisor.py", SRC / "obs" / "expose.py"):
        assert not reaches(path, threads), path.name
    contexts = [context for path in sorted(SRC.rglob("*.py"))
                for context in re.findall(r"get_context\(([^)]*)\)",
                                          path.read_text())]
    assert contexts == ['"fork"']
