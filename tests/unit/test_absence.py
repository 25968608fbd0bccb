"""Unit tests for the one absence manager (repro.absence): the policy
table, the shared pieces every policy runs through (gate, deferral,
custody record, re-entry round), and hand-rolled drain/join scenarios.
The crash scenarios live in test_recovery.py, plan validation in
test_membership.py and test_recovery.py."""

import pytest

from repro.absence.manager import CRASH, DEFERRABLE, DRAIN, JOIN, Frame
from repro.faults import Absence, FaultPlan
from repro.memory import SharedLayout
from repro.net.message import Message
from repro.tm.meta import IntervalRecord
from repro.tm.roles import Roles
from repro.tm.system import TmSystem

NEVER = 1e12


def _system(nprocs, faults=None):
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (64,))
    return TmSystem(nprocs=nprocs, layout=layout, faults=faults)


def _crash_plan(pid, t=NEVER, reboot_us=200.0):
    return FaultPlan(absences=(Absence("crash", pid, t, reboot_us),))


def _drain_plan(pid, t, away_us):
    return FaultPlan(absences=(Absence("drain", pid, t, away_us),))


def _idle(system):
    """Run a trivial program, so the nodes exist and can be poked."""
    system.run(lambda node: None)
    for node in system.nodes:
        node.offline = True     # handlers called by hand charge nothing
    return system.absence


def _live(node):
    """The node's role state, comparable across snapshots."""
    return node.roles.snapshot()._replace(version=0)


# ---------------------------------------------------------------------------
# The policy table (docs/robustness.md, "Drain vs. evict vs. crash").
# ---------------------------------------------------------------------------

def test_policies_are_the_rows_of_the_table():
    rows = {p.name: (p.quiesce, p.ships, p.wipes, p.asks, p.hello)
            for p in (CRASH, DRAIN, JOIN)}
    assert rows == {
        "crash": (False, "stream", True, "peer", None),
        "drain": (True, "handoff", False, "steward", "last"),
        "join": (False, None, False, "peer", "first"),
    }
    # Crash frames are metered apart from drain/join frames.
    assert CRASH.wire == "rec" and DRAIN.wire == JOIN.wire == "mem"


# ---------------------------------------------------------------------------
# The gate.
# ---------------------------------------------------------------------------

def test_gate_holds_inside_atomic_sections_and_nested_operations():
    seen = {}

    def main(node):
        mgr = node.absence
        if node.pid == 1:
            node.proc.advance(100.0)        # the crash is due
            with node._atomic():
                mgr.gate(node)
            seen["atomic"] = dict(mgr.realized)
            node._op_active = True
            mgr.gate(node)
            node._op_active = False
            seen["nested"] = dict(mgr.realized)
            mgr.gate(node)
            seen["clean"] = dict(mgr.realized)

    system = _system(2, _crash_plan(1, t=50.0))
    system.run(main)
    assert seen["atomic"] == {} and seen["nested"] == {}
    assert list(seen["clean"]) == [1]
    assert system.absence.summary()["crashes"] == 1


def test_gate_lets_a_drain_leave_only_between_critical_sections():
    seen = {}

    def main(node):
        mgr = node.absence
        if node.pid == 1:
            node.lock_acquire(1)            # its own lock: local
            node.proc.advance(100.0)        # the drain is due
            mgr.gate(node)
            seen["held"] = dict(mgr.realized)
            node.lock_release(1)
            node.roles.merge(Roles(0, {}, {}, {1: ((0, (0, 0, 0), None),)},
                                   {}))
            mgr.gate(node)
            seen["queued"] = dict(mgr.realized)
            node.roles.clear()
            mgr.gate(node)
            seen["quiet"] = dict(mgr.realized)

    system = _system(3, _drain_plan(1, 50.0, 500.0))
    system.run(main)
    assert seen["held"] == {} and seen["queued"] == {}
    assert list(seen["quiet"]) == [1]
    assert system.absence.summary()["drains"] == 1


def test_gate_does_not_make_a_crash_wait_for_a_lock_release():
    def main(node):
        if node.pid == 1:
            node.lock_acquire(1)
            node.proc.advance(100.0)
            node.lock_release(1)            # the gate is its entry
        node.barrier()

    system = _system(2, _crash_plan(1, t=50.0))
    system.run(main)
    cost = system.absence.summary()
    assert cost["crashes"] == 1 and cost["realized"][1] < 400.0


# ---------------------------------------------------------------------------
# The deferral wrapper.
# ---------------------------------------------------------------------------

class _FakeEndpoint:
    def __init__(self):
        self.handlers = {}

    def on(self, kind, handler, interrupt=True):
        self.handlers[kind] = (handler, interrupt)


class _FakeNode:
    def __init__(self, pid):
        self.pid = pid
        self.ep = _FakeEndpoint()


def test_deferred_requests_replay_in_arrival_order():
    mgr = _system(2, _crash_plan(0)).absence
    node = _FakeNode(0)
    served = []
    for n, kind in enumerate(DEFERRABLE):
        node.ep.on(kind, lambda msg, kind=kind: served.append(
            (kind, msg)), interrupt=bool(n % 2))
    mgr._wrap_deferrable(node)
    # The wrapper keeps each handler's interrupt flag.
    assert [node.ep.handlers[k][1] for k in DEFERRABLE] == \
        [bool(n % 2) for n in range(len(DEFERRABLE))]

    def deliver(kind, msg):
        node.ep.handlers[kind][0](msg)

    deliver("lock_req", "a")                # pending: served at once
    assert served == [("lock_req", "a")]
    mgr._status[0] = "away"
    deliver("lock_fwd", "b")
    deliver("diff_req", "c")
    mgr._status[0] = "returning"
    deliver("lock_req", "d")
    deliver("rec.ask", "e")
    assert served == [("lock_req", "a")]    # all four parked
    mgr._status[0] = "member"
    mgr._replay(0)
    assert served[1:] == [("lock_fwd", "b"), ("diff_req", "c"),
                          ("lock_req", "d"), ("rec.ask", "e")]
    deliver("lock_fwd", "f")                # and straight through again
    assert served[-1] == ("lock_fwd", "f")
    mgr._replay(0)                          # nothing is served twice
    assert len(served) == 6


def test_only_nodes_whose_state_goes_into_custody_defer():
    system = _system(4, FaultPlan(absences=(
        Absence("crash", 3, NEVER, 100.0), Absence("join", 2, 0.0, 10.0),
        Absence("drain", 0, NEVER / 2, 100.0))))
    _idle(system)
    for pid, wrapped in ((0, True), (1, False), (2, False), (3, True)):
        node = system.nodes[pid]        # drain, none, join, crash
        handler = node.ep.handlers["lock_req"][0]
        assert (handler != node.roles._h_lock_req) == wrapped


# ---------------------------------------------------------------------------
# The custody record.
# ---------------------------------------------------------------------------

def _frame_msg(frame):
    return Message(kind="mem.custody", src=frame.victim, dst=1,
                   payload=frame, size=0)


def _steward_state(mgr, node, victim):
    cust = mgr._custody[victim]
    vw = mgr.view[node.pid]
    return (sorted(cust.records), sorted(cust.diffs), sorted(cust.applied),
            cust.roles, set(cust.claimed), cust.acting,
            node.roles.tails_of(victim), _live(node),
            sorted(node.intervals),
            list(node.vc), set(vw.absent), dict(vw.steward),
            dict(vw.watermark), vw.seat)


def test_custody_install_is_idempotent_under_redelivery():
    system = _system(3, _drain_plan(0, NEVER, 100.0))
    mgr = _idle(system)
    steward = system.nodes[1]
    rec = IntervalRecord(0, 1, (1, 0, 0), (0,))
    arrival = ((0, 0, 1), (), None)
    goodbye = Frame(0, records=(rec,), applied=((0, 1, 0),),
                    roles=Roles(1, {0: True, 3: False}, {0: 2, 3: 0}, {},
                                {2: arrival}),
                    goodbye=((1, 0, 0), 1))
    mgr._h_custody(steward, _frame_msg(goodbye))
    first = _steward_state(mgr, steward, 0)
    assert mgr._custody[0].acting and mgr.view[1].seat == 1
    assert steward.roles.tails_of(0) == {0: 2, 3: 0}
    assert _live(steward).box == {2: arrival}
    mgr._h_custody(steward, _frame_msg(goodbye))
    assert _steward_state(mgr, steward, 0) == first
    # ... also after the steward has acted on it: a claimed token and a
    # newer routing tail survive the duplicate.
    assert mgr.claim_token(steward, 0)
    steward.roles.adopt(Roles(0, {}, {0: 1}, {}, {}))
    acted = _steward_state(mgr, steward, 0)
    mgr._h_custody(steward, _frame_msg(goodbye))
    assert _steward_state(mgr, steward, 0) == acted
    assert not mgr.claim_token(steward, 0)          # one-shot


def test_custody_keeps_the_newest_role_snapshot():
    """A snapshot taken in process context can be overtaken on its way
    out by one a handler took later; the older must not win."""
    mgr = _idle(_system(2, _crash_plan(0)))
    steward = mgr.sys.nodes[1]
    newer = Frame(0, roles=Roles(5, {0: False}, {0: 1}, {}, {}))
    older = Frame(0, roles=Roles(4, {0: True}, {}, {}, {}))
    mgr._h_custody(steward, _frame_msg(newer))
    mgr._h_custody(steward, _frame_msg(older))
    cust = mgr._custody[0]
    assert cust.roles == newer.roles
    assert not cust.acting          # streamed: the steward never acts
    assert not mgr.claim_token(steward, 0)
    # History frames carry no snapshot and merge whatever their order.
    rec = IntervalRecord(0, 1, (1, 0), (0,))
    mgr._h_custody(steward, _frame_msg(Frame(0, records=(rec,),
                                             applied=((0, 1, 0),))))
    assert sorted(cust.records) == [1] and cust.roles == newer.roles


def test_hand_back_install_is_idempotent():
    mgr = _idle(_system(2, _crash_plan(0)))
    victim = mgr.sys.nodes[0]
    rec = IntervalRecord(0, 1, (1, 0), (0,))
    queued = (1, (0, 0), None)
    arrival = ((0, 1), (), None, None)
    back = Frame(0, records=(rec,), applied=((0, 1, 0),),
                 roles=Roles(3, {0: True}, {0: 1}, {0: (queued,)},
                             {1: arrival}))

    def state():
        return (sorted(victim.intervals), sorted(victim.applied),
                _live(victim), list(victim.vc))

    mgr._install(victim, back)
    first = state()
    assert _live(victim) == back.roles._replace(version=0)
    mgr._install(victim, back)
    assert state() == first


def test_streamed_custody_mirrors_the_live_role_state():
    """While a crash is pending, every change of the node's lock and
    barrier state reaches the steward: at any quiet moment (here, the
    end of a run whose crash never fires) the copy is exact."""
    def main(node):
        x = node.array("x")
        for it in range(3):
            for lid in (0, 2, 1):
                node.lock_acquire(lid)
                x[lid] = x[lid] + 1.0
                node.lock_release(lid)
            node.barrier()

    for pid in range(4):
        system = _system(4, _crash_plan(pid))
        system.run(main)
        node, cust = system.nodes[pid], system.absence._custody[pid]
        assert cust.roles._replace(version=0) == _live(node)
        assert cust.roles.pending == {} and cust.roles.box == {}
        assert node.roles.quiescent
        assert sorted(cust.records) == sorted(
            r.index for r in node.intervals.values() if r.writer == pid)
        assert system.absence.summary()["log_messages"] > len(cust.records)


def test_gc_drops_custody_history_but_not_roles():
    """The protocol's barrier-time GC is the bound on what a steward
    holds: after a round no pre-GC record or diff can be asked for
    again, so they go; the role snapshot is live state and stays."""
    def main(node):
        x = node.array("x")
        for it in range(6):
            node.lock_acquire(2)
            x[0] = x[0] + 1.0
            node.lock_release(2)
            lo = 16 + node.pid * 8
            x[lo:lo + 8] = x[lo:lo + 8] + float(it)
            node.barrier()
        return float(x[:].sum())

    def system(faults, gc_threshold=None):
        layout = SharedLayout(page_size=256)
        layout.add_array("x", (64,))
        return TmSystem(nprocs=4, layout=layout, faults=faults,
                        gc_threshold=gc_threshold)

    base = system(None).run(main)
    # A crash that never fires: what is left at the steward at the end.
    quiet = system(_crash_plan(2))
    quiet.run(main)
    kept = len(quiet.absence._custody[2].records)
    collected = system(_crash_plan(2), gc_threshold=8)
    assert collected.run(main).returns == base.returns
    assert any(n.gc_rounds for n in collected.nodes)
    cust = collected.absence._custody[2]
    assert len(cust.records) < kept
    assert cust.roles.tokens == _live(collected.nodes[2]).tokens
    # And a crash between GC rounds still comes back bit-identical.
    crashed = system(_crash_plan(2, t=2500.0, reboot_us=800.0),
                     gc_threshold=8)
    assert crashed.run(main).returns == base.returns
    assert crashed.absence.summary()["crashes"] == 1
    assert any(n.gc_rounds for n in crashed.nodes)


# ---------------------------------------------------------------------------
# Hand-rolled drain and join scenarios on a bare TmSystem.
# ---------------------------------------------------------------------------

def _ladder(node):
    x = node.array("x")
    for it in range(4):
        for lid in (1, 2):
            node.lock_acquire(lid)
            x[lid] = x[lid] + 1.0
            node.lock_release(lid)
        lo = 16 + node.pid * 8
        x[lo:lo + 8] = x[lo:lo + 8] + float(it)
        node.barrier()
    return float(x[:].sum())


def test_drain_of_a_lock_manager_is_invisible():
    def main(node):
        x = node.array("x")
        if node.pid == 1:
            node.proc.advance(100.0)
            node.lock_acquire(3)            # the drain realizes here
            node.lock_release(3)
        else:
            node.proc.advance(1000.0)       # lock 1's home is away
            node.lock_acquire(1)
            x[1] = x[1] + 1.0
            node.lock_release(1)
        node.barrier()
        return float(x[1])

    system = _system(4, _drain_plan(1, 50.0, 4000.0))
    res = system.run(main)
    assert res.returns == _system(4).run(main).returns == [3.0] * 4
    cost = system.absence.summary()
    assert cost["drains"] == 1 and cost["handoff_bytes"] > 0
    assert cost["realized"][1] < 1000.0
    # Lock 1 was parked at its (absent) home: the steward claimed it
    # out of custody, once.
    assert cost["tokens_claimed"] == 1
    lines = system.absence.debug_lines()
    assert any("absence P1: drain member" in ln for ln in lines)
    assert any("custody of P1 at P2: held" in ln
               and "1 tokens claimed" in ln for ln in lines)


def test_drain_amid_lock_traffic_is_invisible():
    base = _system(4).run(_ladder)
    system = _system(4, _drain_plan(1, 1500.0, 4000.0))
    assert system.run(_ladder).returns == base.returns
    assert system.absence.summary()["drains"] == 1


def test_drain_of_the_barrier_seat_moves_it_for_good():
    base = _system(4).run(_ladder)
    system = _system(4, _drain_plan(0, 1500.0, 3000.0))
    res = system.run(_ladder)
    assert res.returns == base.returns
    assert [system.absence.seat_of(p) for p in range(4)] == [1] * 4


def test_late_join_catches_up():
    base = _system(4).run(_ladder)
    system = _system(4, FaultPlan(
        absences=(Absence("join", 3, 0.0, 2500.0),)))
    res = system.run(_ladder)
    assert res.returns == base.returns
    cost = system.absence.summary()
    # Announcement, request and reply per peer, all counted.
    assert cost["joins"] == 1 and cost["handoff_messages"] == 9


def test_drain_then_crash_of_another_node():
    """The returning crash victim reads the same view everyone else
    does: the moved seat, not the static master."""
    base = _system(4).run(_ladder)
    system = _system(4, FaultPlan(absences=(
        Absence("crash", 2, 7000.0, 1500.0),
        Absence("drain", 0, 1000.0, 2000.0))))
    res = system.run(_ladder)
    assert res.returns == base.returns
    cost = system.absence.summary()
    assert cost["drains"] == 1 and cost["crashes"] == 1
    assert system.absence.seat_of(2) == 1


def test_membership_on_one_processor_is_rejected():
    from repro.errors import FaultPlanError
    with pytest.raises(FaultPlanError, match="nprocs >= 2"):
        _system(1, _drain_plan(0, 10.0, 10.0))
