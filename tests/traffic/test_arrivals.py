"""Unit tests for the seeded arrival processes.

The load-bearing property is determinism: a schedule is a pure
function of ``(spec, home, n_homes, seed, horizon_us)``, so the same
run configuration produces identical arrivals on every backend and
every mp worker topology.  The rest checks each process's shape —
mean rate, diurnal modulation, the flash step, tenant shares and
deadline resolution.
"""

import pickle

import pytest

from repro.bench import RunConfig
from repro.bench.experiments import main as experiments_main
from repro.traffic import (ADMISSIONS, ARRIVAL_PROCESSES, ArrivalSpec,
                           as_arrival_spec, schedule_for_home)
from repro.traffic.arrivals import DEFAULT_TENANT_MIX

HORIZON = 100_000.0  # 100ms


def spec(**overrides) -> ArrivalSpec:
    defaults = dict(process="poisson", offered_load=50_000.0,
                    deadline_us=4_000.0)
    defaults.update(overrides)
    return ArrivalSpec(**defaults)


def test_same_seed_same_schedule():
    a = schedule_for_home(spec(), home=2, n_homes=4, seed=7,
                          horizon_us=HORIZON)
    b = schedule_for_home(spec(), home=2, n_homes=4, seed=7,
                          horizon_us=HORIZON)
    assert a == b
    assert len(a) > 0


def test_schedule_independent_of_sibling_homes():
    # the property mp correctness rests on: a worker owning homes
    # {1, 3} generates exactly the schedules the single-process run
    # generates for those homes — nothing leaks across home streams
    alone = schedule_for_home(spec(), home=3, n_homes=4, seed=7,
                              horizon_us=HORIZON)
    for other in (0, 1, 2):
        schedule_for_home(spec(), home=other, n_homes=4, seed=7,
                          horizon_us=HORIZON)
    again = schedule_for_home(spec(), home=3, n_homes=4, seed=7,
                              horizon_us=HORIZON)
    assert alone == again


def test_different_seeds_and_homes_differ():
    base = schedule_for_home(spec(), 0, 4, seed=7, horizon_us=HORIZON)
    assert base != schedule_for_home(spec(), 0, 4, seed=8,
                                     horizon_us=HORIZON)
    assert base != schedule_for_home(spec(), 1, 4, seed=7,
                                     horizon_us=HORIZON)


def test_poisson_mean_rate():
    # 50k/s over 4 homes for 100ms => 1250 expected per home (sd ~35)
    n = len(schedule_for_home(spec(), 0, 4, seed=7, horizon_us=HORIZON))
    assert 1050 <= n <= 1450
    # arrivals are sorted and inside the horizon
    sched = schedule_for_home(spec(), 0, 4, seed=7, horizon_us=HORIZON)
    ats = [a.at for a in sched]
    assert ats == sorted(ats)
    assert 0.0 < ats[0] and ats[-1] < HORIZON


def test_diurnal_curve_modulates_rate():
    s = spec(process="diurnal")   # period 20 ms, trough 0.25
    sched = schedule_for_home(s, 0, 1, seed=7, horizon_us=40_000.0)
    # sin phase: [0, 10ms) is the high half-period, [10ms, 20ms) low
    high = sum(1 for a in sched if a.at % 20_000.0 < 10_000.0)
    low = len(sched) - high
    assert high > 1.5 * low


def test_flash_crowd_step():
    s = spec(process="flash")     # the step at half the horizon
    sched = schedule_for_home(s, 0, 1, seed=7, horizon_us=HORIZON)
    before = sum(1 for a in sched if a.at < HORIZON / 2)
    after = len(sched) - before
    # the post-step rate is 4x the quiet rate
    assert after > 2.5 * before


def test_tenant_shares_and_deadline_resolution():
    s = spec(process="tenants")
    sched = schedule_for_home(s, 0, 1, seed=7, horizon_us=HORIZON)
    gold = [a for a in sched if a.tenant == "gold"]
    standard = [a for a in sched if a.tenant == "standard"]
    assert 0.15 < len(gold) / len(standard) < 0.35
    # every tenant carries the spec's deadline and its own priority
    assert all(a.deadline_us == 4_000.0 for a in sched)
    assert all(a.priority == 4.0 for a in gold)
    assert all(a.priority == 1.0 for a in standard)


def test_default_tenant_mix_for_tenants_process():
    assert spec(process="tenants").tenant_mix() == DEFAULT_TENANT_MIX
    assert {t.name for t in DEFAULT_TENANT_MIX} == {"gold", "standard"}
    # non-tenant processes run one anonymous tenant
    assert [t.name for t in spec().tenant_mix()] == ["all"]


def test_as_arrival_spec_normalizes_and_validates():
    assert as_arrival_spec(None) is None
    assert as_arrival_spec("poisson") == ArrivalSpec(process="poisson")
    full = spec(process="flash")
    assert as_arrival_spec(full) is full
    with pytest.raises(ValueError):
        as_arrival_spec("bursty")
    with pytest.raises(ValueError):
        as_arrival_spec(spec(admission="oracle"))
    assert set(ARRIVAL_PROCESSES) >= {"poisson", "diurnal", "flash",
                                      "tenants"}
    assert set(ADMISSIONS) == {"none", "deadline"}


def test_spec_is_picklable():
    s = spec(process="tenants", admission="deadline")
    assert pickle.loads(pickle.dumps(s)) == s


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        schedule_for_home(spec(offered_load=0.0), 0, 4, 7, HORIZON)
    with pytest.raises(ValueError):
        schedule_for_home(spec(), 0, 0, 7, HORIZON)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
def test_only_a_finite_positive_rate_is_accepted(rate, capsys):
    """A NaN rate never reaches the horizon and an infinite one draws
    zero gaps: either would append arrivals forever."""
    with pytest.raises(ValueError, match="finite positive"):
        spec(offered_load=rate)
    with pytest.raises(ValueError, match="finite positive"):
        RunConfig(arrivals="poisson", offered_load=rate).arrival_spec()
    # the CLI refuses it before building anything
    with pytest.raises(SystemExit) as exit_info:
        experiments_main(["fig9a", "--quick", "--arrivals", "poisson",
                          "--offered-load", str(rate)])
    assert exit_info.value.code == 2
    assert "finite positive" in capsys.readouterr().err
