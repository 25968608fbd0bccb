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

from repro.faults import Absence, FaultPlan, HeartbeatConfig
from repro.harness import RunSpec, run

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
    event = Absence("join", pid, 0.0, t) if kind == "join" \
        else Absence(kind, pid, t, dur)
    absences = (event,)
    if with_crash:
        # Not the member itself, and not its steward (which must stay
        # up to serve custody while the member is away).
        cpid = sorted(set(range(4)) - {pid, (pid + 1) % 4})[0]
        absences += (Absence("crash", cpid, event.t1 + base_time * gap,
                             reboot),)
    return FaultPlan(heartbeat=HeartbeatConfig(), absences=absences)


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
    plan = FaultPlan(absences=(
        Absence("crash", 2, 0.4 * T + 3000, 2000.0),
        Absence("drain", 0, 0.2 * T, 3000.0)))
    out = run(spec, faults=plan)
    for name in base.arrays:
        assert np.array_equal(base.arrays[name], out.arrays[name]), name


def test_drain_running_into_a_crash_reboot_on_the_lock_app():
    """A drain's realized window runs into another node's crash reboot:
    P1 drains, and the returning P1's ``mem.join`` sits in
    retransmission past P3's dark NIC.  P3 — a lock manager — comes
    back still believing P1 absent and forwards a ``lock_fwd`` to P1's
    former steward, which has already handed the token back.  The
    steward must relay the forward, not queue it forever."""
    spec = RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                   page_size=1024, opt="base")
    base = run(spec)
    T = base.time
    plan = FaultPlan(absences=(
        Absence("drain", 1, 0.1 * T, 3000.0),
        Absence("crash", 3, 0.1 * T + 3000 + 0.05 * T, 2000.0)))
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
