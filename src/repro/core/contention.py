"""The contention-likelihood model (paper Section 4.1).

Reads and writes to a record within a *lock window* (the average time a
lock is held) are modeled as independent Poisson processes with rates
``lambda_r`` and ``lambda_w``.  A conflicting access is either
write-write (at least two writes, no reads) or read-write (at least one
of each); the two cases are disjoint, and the paper's closed form is

    Pc = 1 - e^{-lw} - lw * e^{-lw} * e^{-lr}

With ``lambda_w = 0`` the likelihood is exactly 0: shared locks never
conflict with each other.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..storage import RecordId


def contention_likelihood(lambda_w: float, lambda_r: float) -> float:
    """Conflict probability for one record within one lock window."""
    if lambda_w < 0 or lambda_r < 0:
        raise ValueError("arrival rates must be non-negative")
    return 1.0 - math.exp(-lambda_w) - (
        lambda_w * math.exp(-lambda_w) * math.exp(-lambda_r))


def likelihoods_from_rates(
        rates: Mapping[RecordId, tuple[float, float]],
) -> dict[RecordId, float]:
    """Vectorized convenience: {rid: (lambda_w, lambda_r)} -> {rid: Pc}."""
    return {rid: contention_likelihood(lw, lr)
            for rid, (lw, lr) in rates.items()}


def normalize(likelihoods: Mapping[RecordId, float],
              ) -> dict[RecordId, float]:
    """Scale likelihoods so the hottest record is 1.0 (paper Fig. 5c)."""
    if not likelihoods:
        return {}
    peak = max(likelihoods.values())
    if peak <= 0.0:
        return {rid: 0.0 for rid in likelihoods}
    return {rid: value / peak for rid, value in likelihoods.items()}
