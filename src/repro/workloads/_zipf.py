"""Power-law popularity weights with pinned head shares.

The Instacart calibration needs "top product in ~15% of baskets, second
in ~8%" — with a basket of ~10 independent draws, that means per-draw
probabilities of ~0.016 and ~0.0085 (1 - (1-p)^10).  The head
probabilities are pinned exactly; the tail *continues the curve
downward* from the last pinned share (so no tail item outranks the
head) and a uniform background absorbs the remaining probability mass,
mimicking the long flat tail of real purchase data.
"""

from __future__ import annotations

import math
import random
from bisect import bisect


def power_law_weights(n: int, top_shares: tuple[float, ...] = (),
                      tail_exponent: float = 1.0) -> list[float]:
    """Per-draw probabilities over ``n`` ranked items, summing to 1.

    The head shares are pinned exactly; normalization error from the
    tail construction (including the rescale branch, whose float drift
    used to leave the vector summing to ≠ 1) is folded back into the
    tail, so ``math.fsum(weights)`` is 1 to within a few ulps.
    """
    if n <= len(top_shares):
        raise ValueError("need more items than pinned head shares")
    if any(share <= 0.0 for share in top_shares):
        raise ValueError("pinned head shares must be positive")
    head_mass = math.fsum(top_shares)
    if head_mass >= 1.0:
        raise ValueError("pinned head shares must sum below 1")
    if any(a < b for a, b in zip(top_shares, top_shares[1:])):
        raise ValueError("pinned head shares must be non-increasing")

    n_head = len(top_shares)
    n_tail = n - n_head
    if not top_shares:
        anchor = 1.0
    else:
        anchor = top_shares[-1]
    # continue the curve: tail rank r gets anchor * (n_head/(n_head+r))^s
    base = max(1, n_head)
    tail = [anchor * (base / (base + rank)) ** tail_exponent
            for rank in range(1, n_tail + 1)]
    tail_mass = math.fsum(tail)
    spare = 1.0 - head_mass - tail_mass
    if spare < 0:
        # curve carries too much mass for the pinned head: shrink it
        tail = [w * (1.0 - head_mass) / tail_mass for w in tail]
        spare = 0.0
    background = spare / n_tail
    weights = list(top_shares)
    weights.extend(w + background for w in tail)
    # exact renormalization: fold the residual float drift into the
    # largest tail weight (the head stays pinned bit-for-bit)
    residual = 1.0 - math.fsum(weights)
    weights[n_head] += residual
    return weights


def weighted_index(rng: random.Random, cum_weights: list[float]) -> int:
    """An index drawn with the probabilities behind ``cum_weights``.

    One ``random()`` and one bisect: exactly what
    ``rng.choices(range(n), cum_weights=cum_weights, k=1)[0]`` returns
    (CPython 3.10–3.12), leaving ``rng`` in the same state, without
    building its population or result list."""
    return bisect(cum_weights, rng.random() * cum_weights[-1], 0,
                  len(cum_weights) - 1)
