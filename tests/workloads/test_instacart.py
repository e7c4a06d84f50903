"""Tests for the synthetic Instacart workload calibration."""

import pytest

from repro._util import make_rng
from repro.core import sample_from_request
from repro.analysis import ProcedureRegistry
from repro.workloads._zipf import power_law_weights
from repro.workloads import instacart
from repro.workloads.instacart import InstacartWorkload


def seeded_workload():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instacart, "CATEGORY_SEED", 3)
        return InstacartWorkload(n_products=1000)


@pytest.fixture(scope="module")
def workload():
    return seeded_workload()


def test_power_law_weights_sum_to_one():
    weights = power_law_weights(100, (0.016, 0.0085), 0.9)
    assert sum(weights) == pytest.approx(1.0)
    assert weights[0] == pytest.approx(0.016)
    assert weights[1] == pytest.approx(0.0085)
    assert weights[2] > weights[50] > weights[99]


def test_power_law_validation():
    with pytest.raises(ValueError):
        power_law_weights(1, (0.5, 0.5))
    with pytest.raises(ValueError):
        power_law_weights(10, (0.9, 0.2))


def test_basket_size_distribution(workload):
    rng = make_rng(1, "size")
    sizes = [len(workload.sample_basket(rng)) for _ in range(500)]
    mean = sum(sizes) / len(sizes)
    assert mean == pytest.approx(10.0, abs=1.5)


def test_baskets_have_no_duplicates(workload):
    rng = make_rng(2, "dups")
    for _ in range(200):
        basket = workload.sample_basket(rng)
        assert len(basket) == len(set(basket))


def test_top_product_share_matches_instacart(workload):
    """The paper's skew: the top product (banana) appears in ~15% of
    orders, the runner-up in ~8%."""
    rng = make_rng(3, "skew")
    n = 2000
    top = second = 0
    for _ in range(n):
        basket = set(workload.sample_basket(rng))
        top += 0 in basket
        second += 1 in basket
    assert top / n == pytest.approx(0.15, abs=0.05)
    assert second / n == pytest.approx(0.08, abs=0.04)


def test_requests_are_valid_grocery_orders(workload):
    rng = make_rng(4, "req")
    request = workload.next_request(2, rng)
    assert request.proc == "grocery_order"
    assert request.home == 2
    assert len(request.params["items"]) >= 1
    # order ids are unique across requests
    other = workload.next_request(2, rng)
    assert request.params["order_id"] != other.params["order_id"]


def test_sampling_extracts_stock_writes(workload):
    registry = ProcedureRegistry()
    for proc in workload.procedures():
        registry.register(proc)
    rng = make_rng(5, "sample")
    request = workload.next_request(0, rng)
    sample = sample_from_request(registry, request)
    stock_writes = [rid for rid in sample.writes if rid[0] == "stock"]
    assert len(stock_writes) == len(request.params["items"])
    order_writes = [rid for rid in sample.writes if rid[0] == "orders"]
    assert len(order_writes) == 1


def test_trace_is_deterministic(workload):
    t1 = workload.trace(20, 4, seed=9)
    w2 = seeded_workload()
    t2 = w2.trace(20, 4, seed=9)
    assert [r.params["items"] for r in t1] == [
        r.params["items"] for r in t2]


def test_categories_make_copurchase_correlated(workload):
    """Non-popular products co-occur with same-category products more
    often than chance: the structure Chiller's partitioner exploits."""
    rng = make_rng(6, "cat")
    cooccur_same = cooccur_other = 0
    for _ in range(800):
        basket = workload.sample_basket(rng)
        tail = [p for p in basket if p >= 20]
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                same = (workload._category_of[tail[i]]
                        == workload._category_of[tail[j]])
                if same:
                    cooccur_same += 1
                else:
                    cooccur_other += 1
    # with 40 categories, random pairs would be same-category ~2.5% of
    # the time; the category model should push this way up
    ratio = cooccur_same / max(1, cooccur_same + cooccur_other)
    assert ratio > 0.15
