"""Timed repeats of one workload, and the end-to-end metrics they give.

A sim cell is *fixed work*: every repeat builds a fresh database and runs
the same seed-determined event stream to the same simulated horizon, so
only CPU time varies between repeats.  The mp cell is *fixed horizon*:
freshly spawned fleets each run for an equal share of the wall-clock
budget.

**Every timing is divided by the machine's slowdown while it was taken.**
On the shared 2-core boxes this runs on, the same code costs up to twice
the CPU time from one quarter of an hour to the next (a busy co-tenant on
the sibling hyperthread), and the slow episodes last from a tenth of a
second to many minutes, so neither medians nor minima over a 20-second
run repeat.  What does repeat is the ratio to a fixed reference loop run
*interleaved* with the work: ``calibration_burst`` below, a few hundred
microseconds of dict/tuple/struct work that uses no repo code.  A sim run
fires one burst every ~10 ms of work, in the same thread, from the
simulator's observer hook, and during a sim cell's build from a 10-ms
timer signal; an mp run fires one every 50 ms from a thread of the
otherwise idle parent.  ``slowdown`` is the burst's measured cost
over ``NOMINAL_OP_NS``; a reported time is the measured time divided by
it, i.e. the time on a machine where a calibration op costs 400 ns
(this box, undisturbed).  Raw values and slowdowns are in the ``--out``
document.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import signal
import statistics
import struct
import sys
import tempfile
import threading
import time
from pathlib import Path

import summary

WORK_DIR = Path(__file__).resolve().parent / ".work"
"""Scratch space (WAL files) inside the checkout, the only place the
benchmark may write; listed in the root ``.gitignore``.  It is on the
checkout's disk, so the WAL cell's fsyncs are real ones."""

MIN_SIM_REPEATS = 3
MP_SUB_RUNS = 5

NOMINAL_OP_NS = 400.0
BURST_OPS = 1_000
WINDOW_S = 0.010
"""Sim work between two calibration bursts: CPU time during a run, wall
clock during a build."""

MP_BURST_PERIOD_S = 0.05
SETUP_BURSTS = 10
"""Bursts fired before, and again after, a sim cell's build, besides the
one per ``WINDOW_S`` of wall clock during it."""

_PACKER = struct.Struct("<IQ")


def calibration_burst() -> int:
    """``BURST_OPS`` iterations of the reference loop.  Part of the
    benchmark's definition: changing it rescales every timing."""
    table, total = {}, 0
    for i in range(BURST_OPS):
        pair = (i & 1023, i)
        table[pair[0]] = pair
        total += _PACKER.unpack(_PACKER.pack(*pair))[1] + len(table)
    return total


class Calibrator:
    """Adds up the CPU time of calibration bursts."""

    def __init__(self, clock=time.process_time):
        self._clock = clock
        self.cpu_s = 0.0
        self.bursts = 0

    def burst(self) -> None:
        c0 = self._clock()
        calibration_burst()
        self.cpu_s += self._clock() - c0
        self.bursts += 1

    def slowdown(self) -> float:
        """Measured cost of a calibration op over the nominal cost."""
        return (self.cpu_s * 1e9 / (self.bursts * BURST_OPS)
                / NOMINAL_OP_NS)


def sim_observer(calibrator: Calibrator):
    """An observer for the simulator's per-event hook that fires a
    calibration burst every ``WINDOW_S`` of CPU time, counted in events
    (reading the clock on every event would cost more than the events of
    the cheapest cell)."""
    every, count, mark = 200, 0, time.process_time()

    def observe(_now) -> None:
        nonlocal every, count, mark
        count += 1
        if count < every:
            return
        spent = time.process_time() - mark
        calibrator.burst()
        every = max(10, min(1_000_000,
                            int(every * WINDOW_S / max(spent, 1e-5))))
        count, mark = 0, time.process_time()
    return observe


@contextlib.contextmanager
def bursts_every(calibrator: Calibrator, period_s: float):
    """Fire a burst every ``period_s`` of wall clock while the body runs,
    in the main thread, between two of its bytecodes (``SIGALRM``).  For
    a build, which has no hook to fire them from.  The real-time timer on
    purpose: a CPU-time timer (``ITIMER_VIRTUAL``) makes Linux serve
    ``time.process_time()`` from a tick-updated counter."""
    previous = signal.signal(signal.SIGALRM, lambda *_: calibrator.burst())
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class BackgroundCalibrator(threading.Thread):
    """Fires a burst every ``MP_BURST_PERIOD_S`` from a thread of its
    own, timed on that thread's CPU clock.  For mp runs, where the work
    is in other processes and this one only waits."""

    def __init__(self):
        super().__init__(daemon=True)
        self.calibrator = Calibrator(clock=time.thread_time)
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(MP_BURST_PERIOD_S):
            self.calibrator.burst()

    def finish(self) -> float:
        self._done.set()
        self.join()
        return self.calibrator.slowdown()


def fleet_cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def child_pids() -> list[int]:
    """Processes whose parent is this one (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and ')'
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The program joins its mp workers itself, but ``multiprocessing``'s
    spawn context also starts a *resource tracker* process on the first
    spawn.  It ends only when this process closes its pipe -- by default
    at interpreter exit, so it outlives the benchmark by a few
    milliseconds and is left to init as a zombie.  Here the pipe is
    closed and the tracker waited for; whatever child is then still
    there (there should be none) is killed and reaped.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except Exception as exc:            # the sweep below still runs
            print(f"warning: resource tracker did not stop cleanly: {exc!r}",
                  file=sys.stderr)
    for pid in child_pids():
        print(f"warning: child process {pid} still there at exit; killing it",
              file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of the run so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``WORK_DIR``; the caller removes it."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def sim_repeat(adapter, cell, seed: int, scale: float = 1.0,
               history: bool = False) -> dict:
    """One repeat of a sim cell: fresh database, run, observe.

    Adds ``setup_s`` (wall time of the build) and ``cpu_s`` (CPU time of
    the run without the calibration bursts), each with the slowdown
    measured while it was taken.
    """
    wal_dir = scratch_dir("wal-")
    try:
        gc.collect()
        around_setup = Calibrator()
        for _ in range(SETUP_BURSTS):
            around_setup.burst()
        burst_s, t0 = around_setup.cpu_s, time.perf_counter()
        with bursts_every(around_setup, WINDOW_S):
            run = adapter.build(cell, seed, scale=scale, wal_dir=wal_dir,
                                history=history)
        setup_s = (time.perf_counter() - t0
                   - (around_setup.cpu_s - burst_s))
        for _ in range(SETUP_BURSTS):
            around_setup.burst()
        gc.collect()
        during_run = Calibrator()
        adapter.attach_observer(run, sim_observer(during_run))
        c0 = time.process_time()
        result = run.run()
        cpu_s = time.process_time() - c0 - during_run.cpu_s
        during_run.burst()
        obs = adapter.observe(cell, run, result)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    obs.update(setup_s=setup_s, setup_slowdown=around_setup.slowdown(),
               cpu_s=cpu_s, slowdown=during_run.slowdown(),
               bursts=during_run.bursts)
    return obs


def measure_sim(adapter, cell, seed: int, seconds: float,
                scale: float = 1.0) -> list[dict]:
    """Repeat a sim cell until another repeat would overrun
    ``seconds``, at least ``MIN_SIM_REPEATS`` times."""
    repeats = []
    started = time.perf_counter()
    while True:
        repeat_started = time.perf_counter()
        repeats.append(sim_repeat(adapter, cell, seed, scale))
        now = time.perf_counter()
        if (len(repeats) >= MIN_SIM_REPEATS
                and now - started + (now - repeat_started) > seconds):
            return repeats


def mp_sub_run(adapter, cell, seed: int, sub_seconds: float,
               phase_trace: bool = False) -> dict:
    """One freshly spawned fleet run for ``sub_seconds`` of wall clock.

    Adds ``cpu_s`` (the whole fleet, spawn to join), ``setup_s``
    (everything that is not the measured horizon: template build, spawn,
    worker rebuild, drain, teardown) and the slowdown over the sub-run.
    """
    gc.collect()
    background = BackgroundCalibrator()
    background.start()
    try:
        c0, t0 = fleet_cpu_s(), time.perf_counter()
        run = adapter.build(cell, seed, mp_seconds=sub_seconds,
                            phase_trace=phase_trace)
        result = run.run()
        wall_s = time.perf_counter() - t0
    finally:
        slowdown = background.finish()
    obs = adapter.observe(cell, run, result)
    obs.update(setup_s=wall_s - sub_seconds, setup_slowdown=slowdown,
               cpu_s=fleet_cpu_s() - c0, slowdown=slowdown,
               bursts=background.calibrator.bursts)
    return obs


def measure_mp(adapter, cell, seed: int, seconds: float) -> list[dict]:
    return [mp_sub_run(adapter, cell, seed, seconds / MP_SUB_RUNS)
            for _ in range(MP_SUB_RUNS)]


def timings(cell, repeats: list[dict]) -> dict[str, list[float]]:
    """Per-repeat values of the metrics that are timings, at nominal
    machine speed.  The mp cell's own clock is the wall clock, so its
    throughput and latency are rescaled too; a sim cell's are simulated
    time and need no rescaling."""
    values = {
        "setup_s": [r["setup_s"] / r["setup_slowdown"] for r in repeats],
        "cpu_us_per_commit": [r["cpu_s"] * 1e6 / r["commits"] / r["slowdown"]
                              for r in repeats],
    }
    if cell.backend == "mp":
        values["txn_per_s"] = [r["txn_per_s"] * r["slowdown"]
                               for r in repeats]
        values["p50_us"] = [
            summary.percentile(sorted(r["commit_latencies_us"]), 0.50)
            / r["slowdown"] for r in repeats]
    return values


def end_to_end(cell, repeats: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one invocation: medians over its
    repeats.

    Everything a sim cell reports on its own clock comes from the first
    repeat: the others are bit-identical, which
    ``summary.exactness_problems`` checks.
    """
    median = statistics.median
    values = {name: median(per_repeat)
              for name, per_repeat in timings(cell, repeats).items()}
    if cell.backend == "sim":
        first = repeats[0]
        values["txn_per_s"] = first["txn_per_s"]
        values["p50_us"] = summary.percentile(
            sorted(first["commit_latencies_us"]), 0.50)
        values.update(summary.shares(first))
    else:
        for name in ("commit_share", "slo_ok_share", "completed_share"):
            values[name] = median(summary.shares(r)[name] for r in repeats)
    values["peak_rss_mb"] = peak_rss_mb()
    return values
