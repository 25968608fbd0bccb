"""Unit tests for the owner of a node's lock/barrier role state
(repro.tm.roles): the custody surface repro.absence uses — snapshot,
merge, adopt, clear, quiescent — and the one seam that tells a
crash-pending node's steward the state changed."""

from repro.absence.manager import AbsenceManager
from repro.faults import Absence, FaultPlan
from repro.memory import SharedLayout
from repro.tm.roles import Roles
from repro.tm.system import TmSystem

EMPTY = Roles(0, {}, {}, {}, {})


def _system(nprocs, faults=None):
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (64,))
    return TmSystem(nprocs=nprocs, layout=layout, faults=faults)


def _idle_node(nprocs=3, pid=0):
    system = _system(nprocs)
    system.run(lambda node: None)
    return system.nodes[pid]


def _live(node):
    return node.roles.snapshot()._replace(version=0)


REQ_A = (1, (0, 1, 0), None)
REQ_B = (2, (0, 0, 1), None)
ARRIVAL = ((0, 1, 0), (), None, None)
#: Everything node 0 of 3 can hold: tokens, the tails of its own locks
#: (0 and 3), a two-deep queue and a boxed arrival.
FULL = Roles(7, {0: True, 3: False}, {0: 2, 3: 1}, {0: (REQ_A, REQ_B)},
             {1: ARRIVAL})


def test_snapshots_are_versioned_copies():
    node = _idle_node()
    node.roles.merge(FULL)
    first, second = node.roles.snapshot(), node.roles.snapshot()
    assert second.version == first.version + 1
    assert first._replace(version=0) == FULL._replace(version=0)
    # A copy: what happens to the node later does not reach it.
    node.roles.clear()
    assert first.tokens == FULL.tokens and first.pending == FULL.pending


def test_merge_is_idempotent_and_never_drops_a_queued_request():
    node = _idle_node()
    node.roles.merge(Roles(1, {}, {}, {0: (REQ_B,)}, {}))   # queued here
    node.roles.merge(FULL)
    merged = _live(node)
    # The request queued meanwhile keeps its place at the head; the
    # snapshot's own copy of it is not queued twice.
    assert merged.pending == {0: (REQ_B, REQ_A)}
    assert merged._replace(pending={}) == \
        FULL._replace(version=0, pending={})
    node.roles.merge(FULL)                                   # re-delivery
    assert _live(node) == merged


def test_clear_then_merge_restores_the_state_exactly():
    node = _idle_node()
    node.roles.merge(FULL)
    snap = node.roles.snapshot()
    before = _live(node)
    node.roles.clear()
    assert _live(node) == EMPTY
    node.roles.merge(snap)
    assert _live(node) == before


def test_only_the_tails_of_its_own_locks_travel():
    node = _idle_node(pid=1)
    # Standing in for node 0: its tails route here, but they are not
    # node 1's to snapshot — they go back through tails_of(0).
    node.roles.adopt(FULL)
    assert _live(node) == EMPTY._replace(box={1: ARRIVAL})
    assert node.roles.tails_of(0) == {0: 2, 3: 1}
    assert node.roles.tails_of(1) == {}


def test_quiescent_only_between_critical_sections():
    seen = {}

    def main(node):
        roles = node.roles
        if node.pid == 1:
            seen["idle"] = roles.quiescent
            node.lock_acquire(1)
            seen["held"] = roles.quiescent
            node.lock_release(1)
            seen["released"] = roles.quiescent
            roles.merge(Roles(1, {}, {}, {1: (REQ_A,)}, {}))
            seen["queued"] = roles.quiescent
            roles.clear()
            seen["cleared"] = roles.quiescent

    _system(3).run(main)
    assert seen == {"idle": True, "held": False, "released": True,
                    "queued": False, "cleared": True}


def _chain(node):
    """Locks 0 (home P0) and 1 (home P1) each go round a three-node
    chain so that P0 lives every protocol moment: it routes requests,
    receives a grant, serves a forward, hands a lock off on release,
    boxes barrier arrivals and takes the box."""
    x = node.array("x")

    def crit(lid, hold=0.0):
        node.lock_acquire(lid)
        x[lid] = x[lid] + 1.0
        node.proc.advance(hold)
        node.lock_release(lid)

    if node.pid == 0:
        crit(1, hold=600.0)
        node.proc.advance(400.0)
        crit(0, hold=600.0)
    elif node.pid == 1:
        crit(0, hold=1500.0)
    else:
        node.proc.advance(200.0)
        crit(1)
        node.proc.advance(2000.0)
        crit(0)
    # TmSystem.run adds the exit barrier: the one barrier.


#: (pid, tokens, own tails, queue depth per lock, box) at every firing of
#: the change seam in ``_chain`` with P0 crash-pending — recorded at the
#: commit before the role state had an owner, where the seam was six
#: ``_roles_changed()`` call sites in TmNode.
SEAM = [
    (1, {1: False}, {1: 0}, {}, []),                        # routed
    (0, {0: False}, {0: 1}, {}, []),                        # routed
    (1, {1: False}, {1: 2}, {}, []),                        # routed
    (0, {0: False, 1: True}, {0: 1}, {}, []),               # granted
    (0, {0: False, 1: True}, {0: 1}, {1: 1}, []),           # forward
    (1, {1: False, 0: True}, {1: 2}, {}, []),               # granted
    (0, {0: False, 1: False}, {0: 1}, {}, []),              # hand-off
    (2, {1: True}, {}, {}, []),                             # granted
    (0, {0: False, 1: False}, {0: 0}, {}, []),              # routed
    (1, {1: False, 0: True}, {1: 2}, {0: 1}, []),           # forward
    (1, {1: False, 0: False}, {1: 2}, {}, []),              # hand-off
    (0, {0: False, 1: False}, {0: 0}, {}, [1]),             # boxed
    (0, {0: True, 1: False}, {0: 0}, {}, [1]),              # granted
    (0, {0: True, 1: False}, {0: 2}, {0: 1}, [1]),          # routed
    (0, {0: False, 1: False}, {0: 2}, {}, [1]),             # hand-off
    (2, {1: True, 0: True}, {}, {}, []),                    # granted
    (0, {0: False, 1: False}, {0: 2}, {}, [0, 1, 2]),       # boxed
    (0, {0: False, 1: False}, {0: 2}, {}, []),              # box taken
]


def test_the_change_seam_fires_once_per_protocol_moment(monkeypatch):
    fired = []
    mirror = AbsenceManager.mirror

    def spy(self, node):
        r = node.roles.snapshot()
        fired.append((node.pid, r.tokens, r.tails,
                      {lid: len(q) for lid, q in r.pending.items()},
                      sorted(r.box)))
        mirror(self, node)

    monkeypatch.setattr(AbsenceManager, "mirror", spy)
    system = _system(3, FaultPlan(
        absences=(Absence("crash", 0, 1e12, 200.0),)))
    system.run(_chain)
    assert fired == SEAM
    # Each of P0's eleven firings is one frame to its steward, beside
    # the two intervals it closed: per-field hooks would ship more.
    cost = system.absence.summary()
    assert (cost["log_messages"], cost["log_bytes"]) == (13, 792)
