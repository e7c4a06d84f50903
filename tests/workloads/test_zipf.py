"""Regression tests for power-law weight normalization and validation,
and for the one weighted-draw helper."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads._zipf import power_law_weights, weighted_index

HEAD_TAIL_CONFIGS = [
    # (n, top_shares, tail_exponent)
    (10, (), 1.0),
    (100, (), 0.5),
    (100, (0.016, 0.0085), 0.9),          # the Instacart calibration
    (1000, (0.016, 0.0085), 0.9),
    (50, (0.3,), 1.0),
    (500, (0.1, 0.05, 0.025), 2.0),
    (10_000, (), 0.99),                    # the YCSB zipf path
    (3, (0.5, 0.4), 1.0),                  # spare < 0: rescale branch
    (10, (0.2,) * 4, 3.0),
]


@pytest.mark.parametrize("n,top_shares,tail_exponent", HEAD_TAIL_CONFIGS)
def test_weights_sum_to_one_exactly(n, top_shares, tail_exponent):
    weights = power_law_weights(n, top_shares, tail_exponent)
    assert len(weights) == n
    assert abs(math.fsum(weights) - 1.0) < 1e-12
    assert all(w >= 0.0 for w in weights)


@pytest.mark.parametrize("n,top_shares,tail_exponent", HEAD_TAIL_CONFIGS)
def test_head_shares_stay_pinned_bit_for_bit(n, top_shares, tail_exponent):
    weights = power_law_weights(n, top_shares, tail_exponent)
    assert tuple(weights[:len(top_shares)]) == top_shares


def test_rescale_branch_regression():
    """The tail-shrink branch used to leave the vector summing away
    from 1; it must now be exact."""
    # big anchor + long heavy tail forces spare < 0
    weights = power_law_weights(2000, (0.4, 0.39), 0.1)
    assert abs(math.fsum(weights) - 1.0) < 1e-12


def test_negative_and_zero_head_shares_rejected():
    with pytest.raises(ValueError):
        power_law_weights(10, (0.5, -0.1))
    with pytest.raises(ValueError):
        power_law_weights(10, (0.5, 0.0))
    with pytest.raises(ValueError):
        power_law_weights(10, (-0.2,))


def test_existing_validation_still_applies():
    with pytest.raises(ValueError):
        power_law_weights(1, (0.5, 0.3))      # n <= head size
    with pytest.raises(ValueError):
        power_law_weights(10, (0.9, 0.2))     # head mass >= 1
    with pytest.raises(ValueError):
        power_law_weights(10, (0.1, 0.2))     # increasing shares


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.lists(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40).filter(lambda w: math.fsum(w) > 0.0),
    st.integers(1, 5))
def test_weighted_index_is_choices_k1(seed, weights, draws):
    """Same index as ``Random.choices(k=1)`` and the same RNG state
    after it, zero weights and ties included."""
    cum = list(itertools.accumulate(weights))
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert weighted_index(ours, cum) == theirs.choices(
            range(len(cum)), cum_weights=cum, k=1)[0]
    assert ours.getstate() == theirs.getstate()
