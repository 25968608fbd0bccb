"""Unit tests for fault plans and their deterministic injection."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (Absence, FaultInjector, FaultPlan, LinkFaults,
                          Partition)


# ---------------------------------------------------------------------------
# Plan validation: malformed plans fail loudly at construction.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"drop": -0.1}, {"drop": 1.5}, {"dup": 2.0}, {"reorder": -1.0},
    {"delay": 1.01}, {"delay_mean_us": -5.0},
])
def test_link_faults_validation(kw):
    with pytest.raises(FaultPlanError):
        LinkFaults(**kw)


def test_partition_window_must_be_nonempty():
    with pytest.raises(FaultPlanError):
        Partition(t0=100.0, t1=100.0, groups=((0,), (1,)))
    with pytest.raises(FaultPlanError):
        Partition(t0=200.0, t1=100.0, groups=((0,), (1,)))


def test_outage_window_must_be_nonempty():
    with pytest.raises(FaultPlanError):
        Absence("silence", pid=0, t=50.0, away_us=0.0)


def test_quiet_link_detection():
    assert LinkFaults().quiet
    assert not LinkFaults(drop=0.1).quiet
    # A pure delay-magnitude change with no probability is still quiet.
    assert LinkFaults(delay_mean_us=999.0).quiet


# ---------------------------------------------------------------------------
# Plan semantics.
# ---------------------------------------------------------------------------

def test_per_link_override_falls_back_to_default():
    hot = LinkFaults(drop=0.5)
    plan = FaultPlan(default=LinkFaults(drop=0.01), links={(0, 1): hot})
    assert plan.link(0, 1) is hot
    assert plan.link(1, 0).drop == 0.01     # overrides are directional


def test_partition_separates_only_across_groups_inside_window():
    part = Partition(t0=100.0, t1=200.0, groups=((0, 1), (2, 3)))
    assert part.separates(0, 2, 150.0)
    assert part.separates(3, 1, 100.0)      # window start inclusive
    assert not part.separates(0, 1, 150.0)  # same group
    assert not part.separates(0, 2, 99.9)   # before window
    assert not part.separates(0, 2, 200.0)  # window end exclusive
    # A pid in no group is unrestricted.
    assert not part.separates(0, 7, 150.0)


def test_outage_covers_half_open_window():
    out = Absence("silence", pid=2, t=10.0, away_us=10.0)
    assert out.covers(10.0)
    assert out.covers(19.9)
    assert not out.covers(20.0)
    assert not out.covers(9.9)


def test_plan_describe_and_as_dict_round_trip():
    plan = FaultPlan.uniform(seed=42, drop=0.1, dup=0.05,
                             partitions=(Partition(0.0, 10.0,
                                                   ((0,), (1,))),),
                             absences=(Absence("silence", 1, 5.0, 1.0),))
    text = plan.describe()
    assert "seed=42" in text and "drop=0.1" in text
    assert "1 partitions" in text and "silence P1 at t=5us" in text
    d = plan.as_dict()
    assert d["seed"] == 42
    assert d["default"]["drop"] == 0.1
    assert d["partitions"][0]["groups"] == [[0], [1]]
    assert d["absences"] == [{"policy": "silence", "pid": 1, "t": 5.0,
                              "away_us": 1.0}]
    assert "heartbeat" not in d     # a silence alone runs no detector


# ---------------------------------------------------------------------------
# Injector: deterministic, seed-driven fabric decisions.
# ---------------------------------------------------------------------------

def _schedule(plan, n=200):
    inj = FaultInjector(plan, nprocs=4)
    return [tuple(inj.plan_copies(0, 1, "data", depart=float(i)))
            for i in range(n)]


def test_same_seed_same_schedule():
    plan = FaultPlan.uniform(seed=7, drop=0.2, dup=0.2, reorder=0.2)
    assert _schedule(plan) == _schedule(plan)


def test_different_seed_different_schedule():
    base = FaultPlan.uniform(seed=7, drop=0.2, dup=0.2, reorder=0.2)
    assert _schedule(base) != _schedule(base.with_seed(8))


def test_quiet_link_is_pass_through_and_burns_no_randomness():
    plan = FaultPlan(default=LinkFaults(),
                     links={(0, 1): LinkFaults(drop=0.5)})
    inj = FaultInjector(plan, nprocs=4)
    # Quiet link (1, 0): exactly one copy, zero extra delay, and the RNG
    # stream is untouched, so faulty-link decisions stay aligned.
    state = inj.rng.getstate()
    assert inj.plan_copies(1, 0, "data", 0.0) == [0.0]
    assert inj.rng.getstate() == state


def test_drop_one_means_everything_lost():
    plan = FaultPlan.uniform(seed=1, drop=1.0)
    inj = FaultInjector(plan, nprocs=2)
    assert all(inj.plan_copies(0, 1, "data", float(i)) == []
               for i in range(20))


def test_dup_one_means_two_copies_second_later():
    plan = FaultPlan.uniform(seed=1, dup=1.0)
    inj = FaultInjector(plan, nprocs=2)
    copies = inj.plan_copies(0, 1, "data", 0.0)
    assert len(copies) == 2
    assert copies[0] == 0.0 and copies[1] > 0.0


def test_partition_drops_cross_group_frames_and_counts():
    plan = FaultPlan(partitions=(Partition(100.0, 200.0,
                                           ((0,), (1,))),))
    inj = FaultInjector(plan, nprocs=2)
    assert inj.plan_copies(0, 1, "data", 150.0) == []
    assert inj.plan_copies(0, 1, "data", 250.0) == [0.0]


def test_outage_silences_sender():
    plan = FaultPlan(absences=(Absence("silence", 0, 10.0, 10.0),))
    inj = FaultInjector(plan, nprocs=2)
    assert inj.plan_copies(0, 1, "data", 15.0) == []
    assert inj.plan_copies(1, 0, "data", 15.0) == [0.0]  # sender 1 is up
    assert inj.outage_at(0, 15.0) is not None
    assert inj.outage_at(0, 20.0) is None


def test_injector_mirrors_counters_into_stats():
    from repro.net.stats import NetStats
    stats = NetStats()
    plan = FaultPlan.uniform(seed=3, drop=1.0)
    inj = FaultInjector(plan, nprocs=2, stats=stats)
    inj.plan_copies(0, 1, "data", 0.0)
    inj.plan_copies(0, 1, "data", 1.0)
    assert stats.faults_dropped == 2
    assert stats.faults_injected == 2
    assert stats.transport_summary()["faults_dropped"] == 2
