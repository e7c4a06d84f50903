"""Boundary spans recorded from outside the program.

``installed(recorder)`` replaces, by ``setattr``, the public entry
points of each layer (a layer is a module under ``src/repro/``) with
wrappers that push and pop a span on one stack.  Nothing inside the
program knows it is being watched; on leaving the ``with`` block every
attribute is put back.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so the layers add up to the root
span (``Cluster.run``) with nothing counted twice.

Generator entry points (``execute``, the commit FSM steps) are timed
per resume: a span opens when the generator is advanced and closes when
it yields its next effect, so simulated waiting is never counted.

A target that no longer exists is skipped with one warning on standard
error; its layer then reports what the remaining targets saw.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

ROOT_LAYER = "sim.kernel"

TARGETS = (
    # (layer, module, dotted attribute inside the module)
    (ROOT_LAYER, "repro.sim.cluster", "Cluster.run"),
    ("sim.runtime", "repro.sim.runtime", "EffectRuntimeBase.perform"),
    ("sim.runtime", "repro.sim.runtime", "EffectRuntimeBase.spawn"),
    ("sim.runtime", "repro.sim.runtime", "EffectRuntimeBase.on_message"),
    ("sim.network", "repro.sim.network", "Network.one_sided"),
    ("sim.network", "repro.sim.network", "Network.one_sided_batch"),
    ("sim.network", "repro.sim.network", "Network.send"),
    ("workloads", "repro.workloads.tpcc", "TpccWorkload.next_request"),
    ("workloads", "repro.workloads.ycsb", "YcsbWorkload.next_request"),
    ("traffic", "repro.traffic.openloop", "schedule_for_home"),
    ("sched", "repro.sched.base", "Scheduler.readmit"),
    ("sched", "repro.sched.base", "Scheduler.on_outcome"),
    ("sched", "repro.sched.base", "FifoScheduler.admit"),
    ("sched", "repro.sched.conflict", "ConflictClassScheduler.admit"),
    ("sched", "repro.sched.conflict", "ConflictClassScheduler.readmit"),
    ("sched", "repro.sched.conflict", "ConflictClassScheduler.on_outcome"),
    ("sched", "repro.sched.admission", "DeadlineAdmission.admit"),
    ("txn", "repro.txn.twopl", "TwoPLExecutor.execute"),
    ("txn", "repro.core.chiller", "ChillerExecutor.execute"),
    ("txn.commit_fsm", "repro.txn.commit_fsm", "CommitFsm.prepare"),
    ("txn.commit_fsm", "repro.txn.commit_fsm", "CommitFsm.commit"),
    ("txn.commit_fsm", "repro.txn.commit_fsm", "CommitFsm.abort"),
    ("core", "repro.core.regions", "RegionPlanner.plan"),
    ("core", "repro.core.lookup", "HotRecordTable.partition"),
    ("core", "repro.core.lookup", "HotRecordTable.is_hot"),
    ("analysis", "repro.analysis.procedures", "StoredProcedure.instantiate"),
    ("storage", "repro.storage.partition", "PartitionStore.try_lock"),
    ("storage", "repro.storage.partition", "PartitionStore.read"),
    ("storage", "repro.storage.partition", "PartitionStore.write"),
    ("storage", "repro.storage.partition", "PartitionStore.insert"),
    ("storage", "repro.storage.partition", "PartitionStore.release_all"),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog.append"),
    ("replication", "repro.replication.replica", "ReplicaManager.apply"),
    # the benchmark's own reference loop, fired from the observer hook
    # inside the run: kept out of every layer's self time
    ("bench.calibration", "measure", "calibration_burst"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

KEEP_SPANS = 20_000
"""Spans kept whole for the Chrome trace (the first ones of the run)."""


class SpanRecorder:
    """One stack of open spans; per-layer self time and call counts.

    The first ``KEEP_SPANS`` spans are also kept whole (name, start,
    end, parent) for the Chrome trace.
    """

    def __init__(self):
        self.kept: list[list] = []      # [name, start_ns, end_ns, parent]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.root_ns = 0
        self._stack: list[list] = []    # [layer, start_ns, child_ns, index]

    def enter(self, layer: str, name: str) -> None:
        index = -1
        if len(self.kept) < KEEP_SPANS:
            index = len(self.kept)
            parent = self._stack[-1][3] if self._stack else -1
            self.kept.append([name, 0, 0, parent])
        start = time.perf_counter_ns()
        if index >= 0:
            self.kept[index][1] = start
        self._stack.append([layer, start, 0, index])

    def leave(self) -> None:
        end = time.perf_counter_ns()
        layer, start, child_ns, index = self._stack.pop()
        duration = end - start
        self.self_ns[layer] = (self.self_ns.get(layer, 0)
                               + duration - child_ns)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if index >= 0:
            self.kept[index][2] = end
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_ns += duration

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as Chrome ``trace_event`` JSON (Perfetto)."""
        if not self.kept:
            return
        origin = self.kept[0][1]
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) / 1e3,
                   "dur": max(0, end - start) / 1e3,
                   "args": {"parent": parent}}
                  for name, start, end, parent in self.kept if end]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)


def _wrap_call(recorder: SpanRecorder, layer: str, name: str, fn):
    enter, leave = recorder.enter, recorder.leave

    def wrapper(*args, **kwargs):
        enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(recorder: SpanRecorder, layer: str, name: str, fn):
    enter, leave = recorder.enter, recorder.leave

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        resume, argument = gen.send, None
        while True:
            enter(layer, name)
            try:
                effect = resume(argument)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                argument = yield effect
                resume = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:    # thrown in by the runtime:
                argument = exc              # pass it on to the program
                resume = gen.throw
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every target that exists; restore all of them on exit."""
    undo = []
    try:
        for layer, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if inspect.isclass(owner)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                print(f"warning: span target {module_name}:{path} is gone; "
                      f"layer {layer} is measured without it",
                      file=sys.stderr)
                continue
            wrap = (_wrap_generator if inspect.isgeneratorfunction(original)
                    else _wrap_call)
            setattr(owner, attr, wrap(recorder, layer, path, original))
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder, commits: int,
                  slowdown: float) -> dict[str, float]:
    """``L.self_us_per_commit`` (at nominal machine speed: divided by
    the ``slowdown`` measured during the traced run) and
    ``L.calls_per_commit`` per layer, plus the share of the root span no
    wrapped entry point accounts for (the event loop and the glue
    between layers)."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_commit"] = (
            recorder.self_ns.get(layer, 0) / 1e3 / commits / slowdown)
        metrics[f"{layer}.calls_per_commit"] = (
            recorder.calls.get(layer, 0) / commits)
    root = recorder.root_ns or 1
    metrics["bench.unattributed_share"] = (
        recorder.self_ns.get(ROOT_LAYER, 0) / root)
    return metrics
