"""Unit tests for the absence vocabulary: plan validation, declarative
JSON plans, and the protocol/mode gating of membership and recovery."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultPlanError, ReproError
from repro.faults import (POLICIES, Absence, FaultPlan, HeartbeatConfig,
                          LinkFaults, Partition, plan_from_dict)


def _drain(pid, t, away_us):
    return Absence("drain", pid, t, away_us)


def _crash(pid, t, reboot_us=20000.0):
    return Absence("crash", pid, t, reboot_us)


# ---------------------------------------------------------------------------
# Plan validation: malformed schedules fail loudly at construction.
# ---------------------------------------------------------------------------

def test_heartbeat_thresholds_must_be_ordered():
    with pytest.raises(FaultPlanError):
        HeartbeatConfig(period_us=500.0, suspect_after_us=400.0)
    with pytest.raises(FaultPlanError):
        HeartbeatConfig(suspect_after_us=2000.0, evict_after_us=2000.0)
    with pytest.raises(FaultPlanError):
        HeartbeatConfig(period_us=0.0)


def test_one_membership_event_per_node():
    with pytest.raises(FaultPlanError, match="at most once"):
        FaultPlan(absences=(Absence("join", 1, 0.0, 100.0),
                            _drain(1, 5000.0, 1000.0)))


def test_absence_windows_must_be_disjoint():
    with pytest.raises(FaultPlanError, match="overlap"):
        FaultPlan(absences=(_drain(1, 1000.0, 5000.0),
                            Absence("silence", 2, 3000.0, 1000.0)))
    # Touching windows are fine (half-open).
    plan = FaultPlan(absences=(_drain(1, 1000.0, 2000.0),
                               Absence("silence", 2, 3000.0, 1000.0)))
    assert len(plan.absences) == 2


@pytest.mark.parametrize("kw", [
    ("join", -1, 0.0, 100.0),
    ("join", 1, 0.0, -5.0),
    ("drain", 1, 100.0, 0.0),
    ("silence", 1, 100.0, -1.0),
    ("join", 1, 100.0, 100.0),      # a join's window starts at 0
    ("leave", 1, 100.0, 100.0),     # not a policy
])
def test_event_field_validation(kw):
    with pytest.raises(FaultPlanError):
        FaultPlan(heartbeat=HeartbeatConfig(), absences=(Absence(*kw),))


def test_validate_for_cluster_size_and_pid_range():
    plan = FaultPlan(absences=(_drain(3, 100.0, 500.0),))
    with pytest.raises(FaultPlanError, match="nprocs >= 2"):
        plan.validate(1)
    with pytest.raises(FaultPlanError, match="out of range"):
        plan.validate(2)
    plan.validate(4)    # fine


def test_validate_for_rejects_crash_conflicts():
    drain = _drain(1, 1000.0, 500.0)
    with pytest.raises(FaultPlanError, match="at most once"):
        FaultPlan(absences=(drain, _crash(1, 9000.0)))
    # The steward (pid + 1) must stay up to serve custody.
    with pytest.raises(FaultPlanError, match="steward"):
        FaultPlan(absences=(drain, _crash(2, 9000.0, 100.0))).validate(4)
    # A crash window overlapping the absence window is rejected too.
    with pytest.raises(FaultPlanError, match="disjoint"):
        FaultPlan(absences=(drain, _crash(3, 1200.0, 5000.0)))
    FaultPlan(absences=(drain, _crash(3, 9000.0, 100.0))).validate(4)


def test_fault_plan_cross_checks_membership():
    with pytest.raises(FaultPlanError):
        FaultPlan(absences=(_crash(1, 100.0), _drain(1, 5000.0, 1000.0)))
    with pytest.raises(FaultPlanError, match="HeartbeatConfig"):
        FaultPlan(heartbeat=42)
    plan = FaultPlan(absences=(_drain(1, 5000.0, 1000.0),))
    # A drain (or a join) always runs the detector.
    assert plan.heartbeat == HeartbeatConfig()
    assert "heartbeat" in plan.describe()
    assert plan.as_dict()["absences"][0]["pid"] == 1
    # A silence alone is a plain NIC outage: it may repeat and overlap.
    quiet = FaultPlan(absences=(Absence("silence", 1, 0.0, 10.0),
                                Absence("silence", 1, 5.0, 10.0)))
    assert quiet.heartbeat is None


# ---------------------------------------------------------------------------
# Declarative JSON plans (satellite: unknown keys list accepted keys).
# ---------------------------------------------------------------------------

def test_plan_from_dict_membership_round_trip():
    spec = {
        "heartbeat": {"period_us": 250.0, "suspect_after_us": 1000.0,
                      "evict_after_us": 3000.0},
        "absences": [
            {"policy": "join", "pid": 3, "t": 0.0, "away_us": 1200.0},
            {"policy": "drain", "pid": 1, "t": 5000.0, "away_us": 800.0}],
    }
    plan = plan_from_dict(spec)
    assert plan.heartbeat.period_us == 250.0
    join, drain = plan.absences
    assert join.pid == 3 and join.t1 == 1200.0 and drain.away_us == 800.0
    # as_dict() -> plan_from_dict() closes the loop.
    assert plan_from_dict(plan.as_dict()) == plan


_hb = st.builds(
    lambda p, s, e: HeartbeatConfig(period_us=p, suspect_after_us=p + s,
                                    evict_after_us=p + s + e),
    st.floats(1.0, 1000.0), st.floats(1.0, 5000.0), st.floats(1.0, 5000.0))
_link = st.builds(LinkFaults, drop=st.floats(0.0, 1.0),
                  dup=st.floats(0.0, 1.0), reorder=st.floats(0.0, 1.0),
                  delay=st.floats(0.0, 1.0),
                  delay_mean_us=st.floats(0.0, 1000.0))
_partition = st.builds(
    lambda t0, dur, groups: Partition(t0, t0 + dur, groups),
    st.floats(0.0, 1e5), st.floats(1.0, 1e4),
    st.sampled_from([((0, 1), (2, 3)), ((0,), (1, 2)), ((3,), (0,))]))


@st.composite
def _plans(draw):
    """A valid plan: one absence per pid, laid end to end in time (a
    join's window starts at 0, so only the first can be non-empty)."""
    events, cursor = [], 0.0
    for pid, (policy, gap, away) in enumerate(draw(st.lists(st.tuples(
            st.sampled_from(POLICIES), st.floats(0.0, 5000.0),
            st.floats(1.0, 5000.0)), max_size=4))):
        if policy == "join":
            away = away if cursor == 0.0 else 0.0
            events.append(Absence("join", pid, 0.0, away))
            cursor = max(cursor, away)
        else:
            events.append(Absence(policy, pid, cursor + gap, away))
            cursor = events[-1].t1
    return FaultPlan(
        seed=draw(st.integers(0, 2 ** 31)), default=draw(_link),
        links=draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), _link,
            max_size=3)),
        partitions=tuple(draw(st.lists(_partition, max_size=2))),
        absences=tuple(events), heartbeat=draw(st.none() | _hb))


@given(_plans())
@settings(max_examples=60, deadline=None)
def test_plan_round_trips_through_as_dict(plan):
    assert plan_from_dict(plan.as_dict()) == plan
    assert plan_from_dict(json.loads(json.dumps(plan.as_dict()))) == plan


@pytest.mark.parametrize("spec,where", [
    ({"bogus": 1}, "fault plan"),
    # The blocks of the old vocabulary are gone, not aliased.
    ({"membership": {"leaves": []}}, "membership"),
    ({"heartbeat": {"period": 100}}, "heartbeat"),
    ({"drains": [{"pid": 1, "t": 1.0, "away_us": 2.0}]}, "drains"),
    ({"crashes": [{"pid": 1, "t": 1.0}]}, "crashes"),
    ({"outages": [{"pid": 1, "t0": 1.0, "t1": 2.0}]}, "outages"),
    ({"absences": [{"policy": "drain", "pid": 1, "t": 1.0, "for": 2.0}]},
     "absences[0]"),
])
def test_plan_from_dict_unknown_keys_list_accepted(spec, where):
    with pytest.raises(FaultPlanError) as ei:
        plan_from_dict(spec)
    text = str(ei.value)
    assert "accepted keys are" in text
    assert where in text


def test_plan_from_dict_missing_keys_list_accepted():
    with pytest.raises(FaultPlanError) as ei:
        plan_from_dict({"absences": [{"policy": "crash", "pid": 1}]})
    text = str(ei.value)
    assert "missing required key(s)" in text and "'t'" in text
    assert "accepted keys are" in text


# ---------------------------------------------------------------------------
# Protocol/mode gating: crash recovery and elastic membership are
# mw-lrc-only, surfaced as typed errors instead of a buried comment.
# ---------------------------------------------------------------------------

def _crash_plan():
    return FaultPlan(absences=(_crash(1, 5000.0),))


def _member_plan():
    return FaultPlan(absences=(_drain(1, 5000.0, 1000.0),))


def test_runspec_rejects_crashes_with_other_protocols():
    from repro.harness import RunSpec, run
    spec = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                   opt="aggr", protocol="hlrc", faults=_crash_plan())
    with pytest.raises(ReproError, match="mw-lrc"):
        run(spec)


def test_runspec_rejects_membership_with_other_protocols():
    from repro.harness import RunSpec, run
    spec = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                   opt="aggr", protocol="hlrc",
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
                 "--protocol", "hlrc"]) == 2
    assert "mw-lrc" in capsys.readouterr().err
