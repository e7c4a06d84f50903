"""Tests for sampling and the global statistics service."""

import pytest

from repro.analysis import ProcedureRegistry
from repro.core import StatsService, TxnSample, sample_from_request
from repro.txn import TxnRequest
from repro.workloads.bank import BankWorkload
from repro.workloads.flightbooking import flight_booking_procedure


@pytest.fixture()
def registry():
    reg = ProcedureRegistry()
    for proc in BankWorkload().procedures():
        reg.register(proc)
    reg.register(flight_booking_procedure())
    return reg


def test_sample_from_transfer(registry):
    request = TxnRequest("transfer", {"src": 1, "dst": 2, "amount": 5.0})
    sample = sample_from_request(registry, request)
    # both reads are for_update targets -> counted as writes
    assert set(sample.writes) == {("accounts", 1), ("accounts", 2)}
    assert sample.reads == ()


def test_sample_from_audit_is_read_only(registry):
    request = TxnRequest("audit", {"accounts": [3, 4]})
    sample = sample_from_request(registry, request)
    assert set(sample.reads) == {("accounts", 3), ("accounts", 4)}
    assert sample.writes == ()


def test_sample_skips_derived_and_hinted_records(registry):
    """The tax read (derived key) and seats insert (hint only) have no
    statically-known record id; the contention model ignores them."""
    request = TxnRequest("book_flight", {"flight_id": 7, "cust_id": 3})
    sample = sample_from_request(registry, request)
    assert set(sample.writes) == {("flight", 7), ("customer", 3)}
    assert sample.reads == ()


def test_sample_records_deduplicates_preserving_order():
    sample = TxnSample("p", reads=(("t", 1), ("t", 2)),
                       writes=(("t", 2), ("t", 3)))
    assert sample.records() == (("t", 1), ("t", 2), ("t", 3))


def test_stats_aggregation_counts():
    service = StatsService()
    service.record(TxnSample("p", reads=(("t", 1),), writes=(("t", 2),)))
    service.record(TxnSample("p", reads=(("t", 1),), writes=()))
    assert len(service.samples) == 2
    # one lock window observed: the (writes, reads) rates are the counts
    assert service.arrival_rates(service.lock_window_us) == {
        ("t", 1): (0.0, 2.0), ("t", 2): (1.0, 0.0)}


def test_arrival_rates_scale_with_window_and_sampling():
    service = StatsService(sample_rate=0.5, lock_window_us=10.0)
    for _ in range(100):
        service.record(TxnSample("p", reads=(("t", 1),), writes=()))
    rates = service.arrival_rates(observed_duration_us=1000.0)
    lw, lr = rates[("t", 1)]
    assert lw == 0.0
    # 100 sampled reads / 0.5 sample rate = 200 real reads over 1000us
    # -> 0.2 reads/us * 10us window = 2 per window
    assert lr == pytest.approx(2.0)


def test_likelihoods_rank_hot_above_cold():
    service = StatsService(sample_rate=1.0, lock_window_us=10.0)
    for i in range(50):
        service.record(TxnSample("p", reads=(),
                                 writes=(("t", "hot"),)))
        if i % 10 == 0:
            service.record(TxnSample("p", reads=(),
                                     writes=(("t", "cold"),)))
    likelihoods = service.likelihoods(observed_duration_us=10_000.0)
    assert likelihoods[("t", "hot")] > likelihoods[("t", "cold")]


def test_likelihoods_from_txn_rate():
    service = StatsService(sample_rate=1.0, lock_window_us=20.0)
    for _ in range(100):
        service.record(TxnSample("p", reads=(), writes=(("t", 1),)))
    # 100 txns at 10k txns/sec -> 10_000us observed; 0.01 writes/us
    # * 20us window -> lambda_w = 0.2 -> Pc = 1 - e^-.2 - .2e^-.2
    out = service.likelihoods_from_txn_rate(txns_per_second=10_000)
    assert out[("t", 1)] == pytest.approx(0.01752, abs=1e-4)


def test_invalid_windows_rejected():
    service = StatsService()
    with pytest.raises(ValueError):
        service.arrival_rates(0.0)
    with pytest.raises(ValueError):
        service.likelihoods_from_txn_rate(0.0)
