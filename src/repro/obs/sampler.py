"""Where one process's time goes: a statistical stack sampler.

While a traced run is live (``RunConfig.trace``), every process of it —
the one that called :meth:`repro.bench.harness.Run.run`, and each mp
worker while it drives its share — arms a real-time interval timer at
:data:`SAMPLE_PERIOD_S`.  Each ``SIGALRM`` counts one sample under the
innermost frame's ``repro`` module (``txn.executor``, ``sim.network``,
...), or under :data:`WAIT` when the process sat in its event loop's
selector with nothing to run.  Nothing the run computes depends on the
handler, so a sim run's output stays bit-identical.

The real-time timer on purpose: waiting is a share of wall time the
table must show.  The previous ``SIGALRM`` handler and timer are put
back when the sampler stops (a benchmark harness may own them between
runs).
"""

from __future__ import annotations

import os
import selectors
import signal
import threading

SAMPLE_PERIOD_S = 0.001
"""Seconds of wall clock between two samples (≈ 1 kHz)."""

WAIT = "wait"
"""The table row of samples that landed in the selector wait."""

OTHER = "other"
"""The row of samples with no ``repro`` frame on the stack."""

_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SELECTORS = selectors.__file__


class StackSampler:
    """Counts ``SIGALRM`` samples by module while started; a no-op off
    the main thread, where no signal handler can be installed."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._modules: dict[str, str | None] = {}
        self._previous = None

    def start(self) -> "StackSampler":
        if threading.current_thread() is threading.main_thread():
            handler = signal.signal(signal.SIGALRM, self._sample)
            timer = signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                                     SAMPLE_PERIOD_S)
            self._previous = (handler, timer)
        return self

    def stop(self) -> dict[str, int]:
        """Disarm, restore what was there, and return the counts."""
        if self._previous is not None:
            handler, timer = self._previous
            self._previous = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            if timer[0] > 0:
                signal.setitimer(signal.ITIMER_REAL, *timer)
        return self.counts

    def _sample(self, _signum, frame) -> None:
        if (frame.f_code.co_filename == _SELECTORS
                and frame.f_code.co_name == "select"):
            where = WAIT
        else:
            where = OTHER
            while frame is not None:
                module = self._module(frame.f_code.co_filename)
                if module is not None:
                    where = module
                    break
                frame = frame.f_back
        self.counts[where] = self.counts.get(where, 0) + 1

    def _module(self, filename: str) -> str | None:
        """``repro/txn/executor.py`` -> ``txn.executor``; None outside
        the package."""
        try:
            return self._modules[filename]
        except KeyError:
            module = None
            if filename.startswith(_PACKAGE + os.sep):
                path = os.path.splitext(filename[len(_PACKAGE) + 1:])[0]
                parts = path.split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                module = ".".join(parts) or "repro"
            self._modules[filename] = module
            return module


def sample_table(samples: dict[str, dict[str, int]]) -> dict:
    """Per process: its sample count and each module's share of it,
    largest first (``perf_summary()["samples"]``)."""
    table = {}
    for process in sorted(samples):
        counts = samples[process]
        total = sum(counts.values())
        table[process] = {
            "n": total,
            "shares": [[module, count / total] for module, count in
                       sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))],
        }
    return table
