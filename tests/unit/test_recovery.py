"""Unit tests for the crash policy of the absence manager
(repro.absence): plan validation and hand-rolled crash scenarios."""

import numpy as np
import pytest

from repro.absence import elect_steward
from repro.errors import FaultPlanError
from repro.faults import (FaultPlan, NodeCrash, NodeOutage,
                          plan_from_dict)
from repro.memory import SharedLayout
from repro.tm.system import TmSystem


def run(nprocs, main, crashes, page_size=256,
        arrays=(("x", (64,)),), telemetry=None):
    layout = SharedLayout(page_size=page_size)
    for name, shape in arrays:
        layout.add_array(name, shape)
    system = TmSystem(nprocs=nprocs, layout=layout,
                      faults=FaultPlan(crashes=tuple(crashes)),
                      telemetry=telemetry)
    return system.run(main), system


# ---------------------------------------------------------------------------
# Plan validation.
# ---------------------------------------------------------------------------

def test_crash_validation():
    with pytest.raises(FaultPlanError):
        NodeCrash(pid=0, t=-1.0)
    with pytest.raises(FaultPlanError):
        NodeCrash(pid=0, t=10.0, reboot_us=0.0)


def test_duplicate_crash_pid_rejected():
    with pytest.raises(FaultPlanError, match="at most once"):
        FaultPlan(crashes=(NodeCrash(pid=1, t=10.0),
                           NodeCrash(pid=1, t=500.0)))


def test_crash_overlapping_outage_rejected():
    # The reboot window [100, 100 + 20000) intersects the outage.
    with pytest.raises(FaultPlanError, match="overlaps"):
        FaultPlan(crashes=(NodeCrash(pid=2, t=100.0),),
                  outages=(NodeOutage(pid=2, t0=5000.0, t1=6000.0),))
    # Same window on a different pid is fine.
    FaultPlan(crashes=(NodeCrash(pid=2, t=100.0),),
              outages=(NodeOutage(pid=1, t0=5000.0, t1=6000.0),))
    # Disjoint windows on the same pid are fine too.
    FaultPlan(crashes=(NodeCrash(pid=2, t=100.0, reboot_us=1000.0),),
              outages=(NodeOutage(pid=2, t0=5000.0, t1=6000.0),))


def test_plan_from_dict_round_trip():
    plan = FaultPlan(crashes=(NodeCrash(pid=3, t=250.0,
                                        reboot_us=1500.0),))
    again = plan_from_dict(plan.as_dict())
    assert again.crashes == plan.crashes
    assert "1 node crashes" in plan.describe()


def test_recovery_needs_two_processors():
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (64,))
    with pytest.raises(FaultPlanError, match="survivors"):
        TmSystem(nprocs=1, layout=layout,
                 faults=FaultPlan(crashes=(NodeCrash(pid=0, t=1.0),)))
    with pytest.raises(FaultPlanError, match="out of range"):
        TmSystem(nprocs=2, layout=layout,
                 faults=FaultPlan(crashes=(NodeCrash(pid=5, t=1.0),)))


def test_elect_backup_is_deterministic_and_distinct():
    for n in (2, 4, 8):
        for victim in range(n):
            b = elect_steward(victim, n)
            assert 0 <= b < n and b != victim
    assert elect_steward(3, 4) == 0


# ---------------------------------------------------------------------------
# Hand-rolled crash scenarios on a bare TmSystem.
# ---------------------------------------------------------------------------

def _baseline(nprocs, main, **kw):
    layout = SharedLayout(page_size=kw.get("page_size", 256))
    for name, shape in kw.get("arrays", (("x", (64,)),)):
        layout.add_array(name, shape)
    system = TmSystem(nprocs=nprocs, layout=layout)
    return system.run(main)


def test_crash_at_barrier_recovers_bit_identically():
    def main(node):
        x = node.array("x")
        for it in range(4):
            lo = node.pid * 16
            x[lo:lo + 16] = x[lo:lo + 16] + float(node.pid + it)
            node.barrier()
        return float(x[:].sum())

    base = _baseline(4, main)
    res, system = run(4, main, [NodeCrash(pid=2, t=1500.0,
                                          reboot_us=2000.0)])
    assert res.returns == base.returns
    cost = system.absence.summary()
    assert cost["log_messages"] > 0 and cost["state_bytes"] > 0
    assert cost["crashes"] == 1 and list(cost["realized"]) == [2]


def test_crash_while_holding_lock_reparks_token():
    def main(node):
        x = node.array("x")
        for _ in range(4):
            node.lock_acquire(1)
            x[0] = x[0] + 1.0
            node.lock_release(1)
        node.barrier()
        return float(x[0])

    base = _baseline(4, main)
    # Crash P2 mid-run: with t inside the lock ladder the crash
    # realizes at an acquire or release, often with the token held.
    res, system = run(4, main, [NodeCrash(pid=2, t=900.0,
                                          reboot_us=1500.0)])
    assert res.returns == base.returns == [16.0] * 4
    assert system.absence.summary()["crashes"] == 1


def test_manager_crash_failover():
    # P0 is the barrier master and static manager of lock 0.
    def main(node):
        x = node.array("x")
        node.lock_acquire(0)
        x[0] = x[0] + 1.0
        node.lock_release(0)
        node.barrier()
        x[8 + node.pid] = x[0]
        node.barrier()
        return float(x[0])

    base = _baseline(4, main)
    res, system = run(4, main, [NodeCrash(pid=0, t=500.0,
                                          reboot_us=1000.0)])
    assert res.returns == base.returns == [4.0] * 4


def test_crash_scheduled_after_exit_never_realizes():
    def main(node):
        x = node.array("x")
        x[node.pid] = 1.0
        node.barrier()
        return float(x[:4].sum())

    res, system = run(4, main, [NodeCrash(pid=1, t=10_000_000.0)])
    assert res.returns == [4.0] * 4
    cost = system.absence.summary()
    assert cost["crashes"] == 0 and cost["realized"] == {}
    assert any("absence P1: crash pending" in ln
               for ln in system.absence.debug_lines())


def test_debug_lines_show_status():
    def main(node):
        x = node.array("x")
        x[node.pid] = 1.0
        node.barrier()

    _, system = run(4, main, [NodeCrash(pid=1, t=200.0,
                                        reboot_us=300.0)])
    lines = system.absence.debug_lines()
    assert any("absence P1: crash member" in ln for ln in lines)
    # The steward's copy of the streamed custody record shows too.
    assert any("custody of P1 at P2" in ln for ln in lines)


def test_applied_watermarks_restored_from_log():
    """The custody record's applied set stops stale own-diff replay."""
    seen = {}

    def main(node):
        x = node.array("x")
        for it in range(4):
            lo = node.pid * 16
            x[lo:lo + 16] = float(it + 1)
            node.barrier()
            # Read a neighbour's band so diffs actually get applied.
            peer = (node.pid + 1) % node.nprocs
            seen[(node.pid, it)] = float(x[peer * 16])
        return float(x[:].sum())

    base = _baseline(4, main)
    res, system = run(4, main, [NodeCrash(pid=1, t=1200.0,
                                          reboot_us=800.0)])
    assert res.returns == base.returns
    # Re-entry restored the applied watermarks: the victim's own
    # records are all marked, so none of its own diffs replayed over
    # new bytes.
    victim = system.nodes[1]
    own = [r for r in victim.intervals.values() if r.writer == 1]
    assert own and all((1, r.index, p) in victim.applied
                       for r in own for p in r.pages)
