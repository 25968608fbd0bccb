"""Property test of ``TmNode``'s notice index.

``_needed_notices`` used to re-filter a page's whole notice history at
every fault; it now filters a per-page *pending* list and reads a
per-page dominating-overwrite record kept as notices arrive.  Random
sequences of everything that touches that state — notices arriving (in
and out of order, with and without WRITE_ALL pages), diffs applied, a
Push subsuming a page, GC, a crash wipe and the custody restore after
it — drive one offline node; after every step the index must answer
exactly what the history scan (the old body, kept here as the
reference) answers, in the same order, and leave the same ``applied``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Absence, FaultPlan
from repro.memory import SharedLayout
from repro.tm.meta import IntervalRecord
from repro.tm.system import TmSystem

NPROCS = 3
NPAGES = 4


def scan_history(node, page):
    """The history scan ``_needed_notices`` replaced, on a copy of
    ``applied``: returns ``(needed, applied afterwards)``."""
    applied = set(node.applied)
    notices = node.page_notices.get(page, [])
    unapplied = [k for k in notices
                 if (k[0], k[1], page) not in applied]
    if not unapplied:
        return [], applied
    doms = [k for k in notices
            if page in node.intervals[k].overwrite_pages]
    if doms:
        om = max(doms, key=lambda k: node.intervals[k].order_key())
        om_rec = node.intervals[om]
        kept = []
        for k in unapplied:
            if k != om and node.intervals[k].happens_before(om_rec):
                applied.add((k[0], k[1], page))
            else:
                kept.append(k)
        unapplied = kept
    return unapplied, applied


def check(node, pages):
    for p in pages:
        want, applied = scan_history(node, p)
        assert node._needed_notices(p) == want
        assert node.applied == applied


def offline_node():
    layout = SharedLayout(page_size=64)
    layout.add_array("x", (NPAGES * 8,))        # 8 doubles per page
    system = TmSystem(nprocs=NPROCS, layout=layout)
    system.run(lambda node: None)
    node = system.nodes[0]
    node.offline = True
    return node


pages_st = st.sets(st.integers(0, NPAGES - 1))

step_st = st.one_of(
    # A writer closes an interval (after hearing of ``heard``'s last).
    st.tuples(st.just("write"), st.integers(1, NPROCS - 1),
              st.integers(1, NPROCS - 1),
              st.sets(st.integers(0, NPAGES - 1), min_size=1),
              pages_st),
    # Some of the notices in flight arrive (any subset, any order).
    st.tuples(st.just("deliver"), st.randoms(use_true_random=False)),
    # Some of what a page needs gets applied.
    st.tuples(st.just("apply"), st.integers(0, NPAGES - 1),
              st.integers(0, 3)),
    st.tuples(st.just("push"), st.integers(0, NPAGES - 1)),
    st.tuples(st.just("gc")),
    st.tuples(st.just("crash"), st.randoms(use_true_random=False)),
)


@given(st.lists(st.tuples(step_st, pages_st), max_size=40))
@settings(max_examples=150, deadline=None)
def test_index_answers_what_the_history_scan_answers(steps):
    node = offline_node()
    clocks = [[0] * NPROCS for _ in range(NPROCS)]
    in_flight, delivered = [], []
    for step, probe in steps:
        kind = step[0]
        if kind == "write":
            _, w, heard, pages, overwrite = step
            vc = clocks[w]
            vc[:] = [max(a, b) for a, b in zip(vc, clocks[heard])]
            vc[w] += 1
            in_flight.append(IntervalRecord(
                w, vc[w], tuple(vc), tuple(sorted(pages)),
                frozenset(overwrite & pages)))
        elif kind == "deliver":
            rng = step[1]
            batch = [r for r in in_flight if rng.random() < 0.6]
            rng.shuffle(batch)
            for rec in batch:
                in_flight.remove(rec)
                delivered.append(rec)
            node.apply_notices(batch)
        elif kind == "apply":
            _, page, count = step
            for (w, i) in node._needed_notices(page)[:count]:
                node.applied.add((w, i, page))
        elif kind == "push":
            # What a Push (node.py) and an hlrc page install do.
            page = step[1]
            for (w, i) in node.page_notices.get(page, []):
                node.applied.add((w, i, page))
        elif kind == "gc":
            node._gc_discard()
            assert node._pending == {} and node._dominator == {}
            in_flight, delivered = [], []
        else:
            # A crash wipes the history; re-entry merges back whatever
            # part of it (and of the applied set) custody held.
            rng = step[1]
            held = [t for t in sorted(node.applied) if rng.random() < 0.7]
            node._discard_history()
            assert node._pending == {} and node._dominator == {}
            node.apply_notices([r for r in delivered
                                if rng.random() < 0.7])
            node.applied.update(held)
        check(node, sorted(probe))
    check(node, range(NPAGES))


def test_index_is_empty_after_gc_and_after_a_crash_wipe(monkeypatch):
    """End to end: both history resets go through the one method that
    also clears the index, and the run still computes the same sums."""
    from repro.tm.node import TmNode

    resets = []
    discard = TmNode._discard_history

    def spy(node):
        discard(node)
        resets.append((node.pid, dict(node._pending),
                       dict(node._dominator), len(node.page_notices)))

    monkeypatch.setattr(TmNode, "_discard_history", spy)

    def main(node):
        x = node.array("x")
        lo = node.pid * 8
        for it in range(12):
            x[lo:lo + 8] = float(it + 1)
            node.barrier()
            peer = (node.pid + 1) % node.nprocs
            assert float(x[peer * 8]) == float(it + 1)
            node.barrier()
        return float(x[0:NPROCS * 8].sum())

    def run(**kw):
        layout = SharedLayout(page_size=64)
        layout.add_array("x", (NPAGES * 8,))
        system = TmSystem(nprocs=NPROCS, layout=layout, **kw)
        return system.run(main), system

    want = [12.0 * 8 * NPROCS] * NPROCS
    res, system = run(gc_threshold=10)
    assert res.returns == want
    assert all(n.gc_rounds >= 1 for n in system.nodes)
    gc_resets, resets[:] = list(resets), []
    res, system = run(faults=FaultPlan(absences=(
        Absence("crash", 1, 800.0, 400.0),)))
    assert res.returns == want
    assert system.absence.summary()["crashes"] == 1
    assert gc_resets and [r[0] for r in resets] == [1]
    assert all(r[1:] == ({}, {}, 0) for r in gc_resets + resets)
