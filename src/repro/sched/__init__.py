"""Contention-aware transaction scheduling (the cross-transaction layer).

Sits between workload generation and the execution engines: every
request an engine's workers generate passes through that engine's
:class:`Scheduler` before any effect is emitted, so scheduling works
identically on the sim, aio, and mp backends (mp workers build their
schedulers from the kind name carried in ``RunConfig``).  See ARCHITECTURE.md "Scheduling layer".
"""

from .admission import DeadlineAdmission
from .base import (SCHEDULERS, AdmitDecision, FifoScheduler, SchedAction,
                   SchedReason, Scheduler, SchedulerSpec, SchedulerStats,
                   as_spec)
from .conflict import CONTENTION_ABORTS, ConflictClassScheduler

__all__ = [
    "AdmitDecision",
    "CONTENTION_ABORTS",
    "ConflictClassScheduler",
    "DeadlineAdmission",
    "FifoScheduler",
    "SCHEDULERS",
    "SchedAction",
    "SchedReason",
    "Scheduler",
    "SchedulerSpec",
    "SchedulerStats",
    "as_spec",
]
