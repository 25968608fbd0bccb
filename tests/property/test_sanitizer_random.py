"""Property tests: the race detector over random schedules.

Race-free schedules (every shared access under its lock, plus the exit
barrier) must produce zero findings whatever the interleaving; removing
the locks from a schedule with a guaranteed write-write overlap must
always produce at least one race report.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import SharedLayout
from repro.sanitizer import sanitize_events
from repro.telemetry import Telemetry
from repro.tm.system import TmSystem

NLOCKS = 3
SLOTS = 8


@st.composite
def schedules(draw):
    nprocs = draw(st.sampled_from([2, 3, 4]))
    page_size = draw(st.sampled_from([64, 256]))
    per_proc = []
    for _ in range(nprocs):
        n_ops = draw(st.integers(1, 5))
        per_proc.append([(draw(st.integers(0, NLOCKS - 1)),
                          draw(st.integers(0, SLOTS - 1)))
                         for _ in range(n_ops)])
    return nprocs, page_size, per_proc


def sanitize_schedule(nprocs, page_size, per_proc, locked):
    layout = SharedLayout(page_size=page_size)
    layout.add_array("acc", (SLOTS, NLOCKS))
    tel = Telemetry(access_events=True)
    system = TmSystem(nprocs=nprocs, layout=layout, telemetry=tel)

    def main(node):
        acc = node.array("acc")
        for lid, slot in per_proc[node.pid]:
            if locked:
                node.lock_acquire(lid)
            acc[slot, lid] = acc[slot, lid] + 1.0
            if locked:
                node.lock_release(lid)
        node.barrier()

    system.run(main)
    return sanitize_events(tel.bus.events, layout, nprocs,
                           hint_checking=False)


@given(schedules())
# P3 re-acquires L2 locally while P2's request is forwarded to it: the
# local re-acquire must be atomic, or the token is granted away inside
# its cost charge and both run the critical section.
@example(sched=(4, 256, [[(0, 0), (1, 0), (1, 0), (0, 0), (0, 0)],
                         [(2, 0), (1, 0), (0, 0), (0, 0), (0, 0)],
                         [(0, 0), (0, 0), (0, 0), (2, 0), (0, 0)],
                         [(2, 0), (2, 0)]]))
@settings(max_examples=25, deadline=None)
def test_race_free_schedules_sanitize_clean(sched):
    nprocs, page_size, per_proc = sched
    rep = sanitize_schedule(nprocs, page_size, per_proc, locked=True)
    assert rep.ok, rep.render()
    assert rep.problems == []
    # The explicit barrier plus the runtime's implicit exit barrier.
    assert rep.sync_counts["barriers"] == 2


@given(schedules())
@settings(max_examples=15, deadline=None)
def test_unlocked_overlap_always_detected(sched):
    nprocs, page_size, per_proc = sched
    # Force a write-write overlap: every processor touches (0, 0).
    per_proc = [ops + [(0, 0)] for ops in per_proc]
    rep = sanitize_schedule(nprocs, page_size, per_proc, locked=False)
    races = [f for f in rep.findings if f.category == "race"]
    assert races, rep.render()
    # Findings are deduplicated per (pid pair, array, kind), so the
    # sampled element may be any colliding cell — a write/write pair
    # must be among them, though.
    assert any(f.kind == "race" and "write/write" in f.detail
               for f in races)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_schedule_determinism(seed):
    import random

    rng = random.Random(seed)
    per_proc = [[(rng.randrange(NLOCKS), rng.randrange(SLOTS))
                 for _ in range(4)] for _ in range(3)]
    a = sanitize_schedule(3, 64, per_proc, locked=True)
    b = sanitize_schedule(3, 64, per_proc, locked=True)
    assert a.ok and b.ok
    assert a.events == b.events and a.accesses == b.accesses
