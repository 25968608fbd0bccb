"""Property tests for elastic membership.

Two families:

* **Churn transparency.**  For random membership schedules — a late
  join, a graceful drain, or a NIC silence (detector suspicion or
  eviction), optionally mixed with a node crash on a *different*
  processor in a non-overlapping window — the elastic run must produce
  results bit-identical to the static-cluster fault-free run.  Joins,
  drains, evictions and false-positive suspicions must all be invisible
  to the computed answer.

* **Schedule determinism.**  An elastic run is a pure function of
  (program, membership schedule, seed): running the same case twice
  must reproduce identical results, simulated time and network
  statistics — heartbeat jitter included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, NodeCrash
from repro.harness import RunSpec, run
from repro.membership import (HeartbeatConfig, MembershipPlan, NodeDrain,
                              NodeJoin, NodeSilence)

BASE = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
               opt="aggr")

_cache = {}


def _base():
    if "out" not in _cache:
        _cache["out"] = run(BASE)
    return _cache["out"]


# One membership event (join/drain/silence on pid 1..3), optionally
# followed by a crash of a different node after the event's window has
# closed (the mix the recovery and membership layers must absorb
# together; overlapping windows are out of contract).
mix = st.tuples(
    st.sampled_from(["join", "drain", "silence"]),
    st.integers(1, 3),            # membership pid
    st.floats(0.10, 0.45),        # event time, fraction of base run
    st.floats(1500.0, 4000.0),    # away/down duration (us)
    st.booleans(),                # also crash another node?
    st.floats(0.08, 0.25),        # gap before the crash, fraction
    st.floats(1000.0, 4000.0))    # reboot duration (us)


def _build_plan(m, base_time):
    kind, pid, frac, dur, with_crash, gap, reboot = m
    t = base_time * frac
    joins, drains, silences = (), (), ()
    if kind == "join":
        joins, end = (NodeJoin(pid, t),), t
    elif kind == "drain":
        drains, end = (NodeDrain(pid, t, dur),), t + dur
    else:
        silences, end = (NodeSilence(pid, t, dur),), t + dur
    mplan = MembershipPlan(heartbeat=HeartbeatConfig(), joins=joins,
                           drains=drains, silences=silences)
    crashes = ()
    if with_crash:
        # Not the member itself, and not its steward (which must stay
        # up to serve custody while the member is away).
        cpid = sorted(set(range(4)) - {pid, (pid + 1) % 4})[0]
        crashes = (NodeCrash(pid=cpid, t=end + base_time * gap,
                             reboot_us=reboot),)
    return FaultPlan(crashes=crashes, membership=mplan)


@given(mix)
@settings(max_examples=8, deadline=None)
def test_random_membership_mix_converges_to_static(m):
    base = _base()
    plan = _build_plan(m, base.time)
    out = run(BASE, faults=plan)
    for name in base.arrays:
        assert np.array_equal(base.arrays[name], out.arrays[name]), name


def test_drain_then_crash_on_the_lock_app():
    """The mix above, pinned, on ``is``: P0 — barrier seat and a lock
    home — drains and returns, then P2 crashes.  P2's re-entry must see
    the moved seat and the lock state it really had, not the static
    assignment: with a crash manager that knew nothing of membership
    this plan validated, each event alone ended bit-identical, and
    together they deadlocked."""
    spec = RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                   page_size=1024, opt="base")
    base = run(spec)
    T = base.time
    plan = FaultPlan(
        crashes=(NodeCrash(pid=2, t=0.4 * T + 3000, reboot_us=2000.0),),
        membership=MembershipPlan(
            drains=(NodeDrain(0, 0.2 * T, 3000.0),)))
    out = run(spec, faults=plan)
    for name in base.arrays:
        assert np.array_equal(base.arrays[name], out.arrays[name]), name


@given(mix)
@settings(max_examples=6, deadline=None)
def test_same_schedule_is_byte_identical(m):
    base = _base()
    plan = _build_plan(m, base.time)
    a = run(BASE, faults=plan)
    b = run(BASE, faults=plan)
    assert a.time == b.time
    assert a.net.messages == b.net.messages
    assert a.net.bytes == b.net.bytes
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
