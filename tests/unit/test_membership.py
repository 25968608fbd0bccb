"""Unit tests for elastic membership: plan validation, declarative
JSON plans, and the protocol/mode gating of membership and recovery."""

import pytest

from repro.errors import FaultPlanError, MembershipError, ReproError
from repro.faults import FaultPlan, NodeCrash, plan_from_dict
from repro.membership import (HeartbeatConfig, MembershipPlan, NodeDrain,
                              NodeJoin, NodeSilence)


# ---------------------------------------------------------------------------
# Plan validation: malformed schedules fail loudly at construction.
# ---------------------------------------------------------------------------

def test_heartbeat_thresholds_must_be_ordered():
    with pytest.raises(MembershipError):
        HeartbeatConfig(period_us=500.0, suspect_after_us=400.0)
    with pytest.raises(MembershipError):
        HeartbeatConfig(suspect_after_us=2000.0, evict_after_us=2000.0)
    with pytest.raises(MembershipError):
        HeartbeatConfig(period_us=0.0)


def test_one_membership_event_per_node():
    with pytest.raises(MembershipError, match="duplicated"):
        MembershipPlan(joins=(NodeJoin(1, 100.0),),
                       drains=(NodeDrain(1, 5000.0, 1000.0),))


def test_absence_windows_must_be_disjoint():
    with pytest.raises(MembershipError, match="overlap"):
        MembershipPlan(drains=(NodeDrain(1, 1000.0, 5000.0),),
                       silences=(NodeSilence(2, 3000.0, 1000.0),))
    # Touching windows are fine (half-open).
    plan = MembershipPlan(drains=(NodeDrain(1, 1000.0, 2000.0),),
                          silences=(NodeSilence(2, 3000.0, 1000.0),))
    assert len(plan.events()) == 2


@pytest.mark.parametrize("kw", [
    {"joins": (NodeJoin(-1, 100.0),)},
    {"joins": (NodeJoin(1, -5.0),)},
    {"drains": (NodeDrain(1, 100.0, 0.0),)},
    {"silences": (NodeSilence(1, 100.0, -1.0),)},
])
def test_event_field_validation(kw):
    with pytest.raises(MembershipError):
        MembershipPlan(**kw)


def test_validate_for_cluster_size_and_pid_range():
    plan = MembershipPlan(drains=(NodeDrain(3, 100.0, 500.0),))
    with pytest.raises(MembershipError, match="nprocs >= 2"):
        plan.validate_for(1)
    with pytest.raises(MembershipError, match="out of range"):
        plan.validate_for(2)
    plan.validate_for(4)    # fine


def test_validate_for_rejects_crash_conflicts():
    plan = MembershipPlan(drains=(NodeDrain(1, 1000.0, 500.0),))
    with pytest.raises(MembershipError, match="both crashes"):
        plan.validate_for(4, crashes=(NodeCrash(pid=1, t=9000.0),))
    # The steward (pid + 1) must stay up to serve custody.
    with pytest.raises(MembershipError, match="steward"):
        plan.validate_for(4, crashes=(
            NodeCrash(pid=2, t=9000.0, reboot_us=100.0),))
    # A crash window overlapping the absence window is rejected too.
    with pytest.raises(MembershipError, match="disjoint"):
        plan.validate_for(4, crashes=(
            NodeCrash(pid=3, t=1200.0, reboot_us=5000.0),))
    plan.validate_for(4, crashes=(
        NodeCrash(pid=3, t=9000.0, reboot_us=100.0),))


def test_fault_plan_cross_checks_membership():
    mplan = MembershipPlan(drains=(NodeDrain(1, 5000.0, 1000.0),))
    with pytest.raises(FaultPlanError):
        FaultPlan(crashes=(NodeCrash(pid=1, t=100.0),),
                  membership=mplan)
    with pytest.raises(FaultPlanError, match="MembershipPlan"):
        FaultPlan(membership=42)
    plan = FaultPlan(membership=mplan)
    assert "membership" in plan.describe()
    assert plan.as_dict()["membership"]["drains"][0]["pid"] == 1


# ---------------------------------------------------------------------------
# Declarative JSON plans (satellite: unknown keys list accepted keys).
# ---------------------------------------------------------------------------

def test_plan_from_dict_membership_round_trip():
    spec = {"membership": {
        "heartbeat": {"period_us": 250.0, "suspect_after_us": 1000.0,
                      "evict_after_us": 3000.0},
        "joins": [{"pid": 3, "t": 1200.0}],
        "drains": [{"pid": 1, "t": 5000.0, "away_us": 800.0}],
    }}
    plan = plan_from_dict(spec)
    m = plan.membership
    assert m.heartbeat.period_us == 250.0
    assert m.joins[0].pid == 3 and m.drains[0].away_us == 800.0
    # as_dict() -> plan_from_dict() closes the loop.
    again = plan_from_dict(plan.as_dict())
    assert again.membership.as_dict() == m.as_dict()


@pytest.mark.parametrize("spec,where", [
    ({"bogus": 1}, "fault plan"),
    ({"membership": {"leaves": []}}, "membership"),
    ({"membership": {"heartbeat": {"period": 100}}}, "heartbeat"),
    ({"membership": {"drains": [{"pid": 1, "t": 1.0, "for": 2.0}]}},
     "drains"),
    ({"crashes": [{"pid": 1, "t": 1.0, "boom": True}]}, "crashes"),
    ({"outages": [{"pid": 1, "t0": 1.0, "t1": 2.0, "why": "x"}]},
     "outages"),
])
def test_plan_from_dict_unknown_keys_list_accepted(spec, where):
    with pytest.raises(FaultPlanError) as ei:
        plan_from_dict(spec)
    text = str(ei.value)
    assert "accepted keys are" in text
    assert where in text


def test_plan_from_dict_missing_keys_list_accepted():
    with pytest.raises(FaultPlanError) as ei:
        plan_from_dict({"crashes": [{"pid": 1}]})
    text = str(ei.value)
    assert "missing required key(s)" in text and "'t'" in text
    assert "accepted keys are" in text


# ---------------------------------------------------------------------------
# Protocol/mode gating: crash recovery and elastic membership are
# mw-lrc-only, surfaced as typed errors instead of a buried comment.
# ---------------------------------------------------------------------------

def _crash_plan():
    return FaultPlan(crashes=(NodeCrash(pid=1, t=5000.0),))


def _member_plan():
    return FaultPlan(membership=MembershipPlan(
        drains=(NodeDrain(1, 5000.0, 1000.0),)))


def test_runspec_rejects_crashes_with_other_protocols():
    from repro.harness import RunSpec, run
    spec = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                   opt="aggr", protocol="hlrc", faults=_crash_plan())
    with pytest.raises(ReproError, match="mw-lrc"):
        run(spec)


def test_runspec_rejects_membership_with_other_protocols():
    from repro.harness import RunSpec, run
    spec = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                   opt="aggr", protocol="adaptive",
                   faults=_member_plan())
    with pytest.raises(ReproError, match="mw-lrc"):
        run(spec)


def test_runspec_rejects_membership_outside_dsm():
    from repro.harness import RunSpec, run
    spec = RunSpec(app="jacobi", mode="mp", dataset="tiny", nprocs=4,
                   faults=_member_plan())
    with pytest.raises(ReproError, match="membership"):
        run(spec)


def test_recover_cli_rejects_other_protocols(capsys):
    from repro.__main__ import main
    assert main(["recover", "--apps", "jacobi", "--protocol", "hlrc"]) == 2
    assert "mw-lrc" in capsys.readouterr().err


def test_elastic_cli_rejects_other_protocols(capsys):
    from repro.__main__ import main
    assert main(["elastic", "--apps", "jacobi",
                 "--protocol", "adaptive"]) == 2
    assert "mw-lrc" in capsys.readouterr().err
