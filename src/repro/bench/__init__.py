"""Benchmark harness: driver, metrics, and per-figure experiments."""

from .harness import (BACKENDS, Run, RunConfig, RunResult, make_cluster,
                      run_benchmark)
from .metrics import Metrics

__all__ = [
    "BACKENDS",
    "Metrics",
    "Run",
    "RunConfig",
    "RunResult",
    "make_cluster",
    "run_benchmark",
]
