"""Protocol-level tests of the TreadMarks core (LRC, locks, barriers)."""

import pytest

from repro.harness.experiments import barrier_us, lock_acquire_us
from repro.memory import Section, SharedLayout
from repro.tm.system import TmSystem


def run(nprocs, main, page_size=256, arrays=(("x", (64,)),), config=None):
    layout = SharedLayout(page_size=page_size)
    for name, shape in arrays:
        layout.add_array(name, shape)
    system = TmSystem(nprocs=nprocs, layout=layout, config=config)
    return system.run(main), system


def test_barrier_propagates_writes():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:32] = 2.0
        node.barrier()
        return float(x[0:32].sum())

    res, _ = run(4, main)
    assert res.returns == [64.0] * 4


def test_barrier_time_matches_paper_893us():
    assert barrier_us() == pytest.approx(893.0, rel=0.01)


def test_remote_free_lock_acquire_costs_427us():
    """Acquiring a free lock whose manager is remote: paper's 427 us."""
    assert lock_acquire_us() == pytest.approx(427.0, rel=0.01)


def test_local_lock_reacquire_needs_no_messages():
    def main(node):
        if node.pid == 0:
            node.lock_acquire(0)   # P0 is the manager: local
            node.lock_release(0)
            node.lock_acquire(0)
            node.lock_release(0)
        node.barrier()

    res, _ = run(2, main)
    assert res.stats.lock_local_acquires == 2
    # Only the explicit barrier plus the implicit exit barrier exchange
    # messages: 2 x 2(n-1).
    assert res.messages == 4


def test_lock_protects_migratory_counter():
    """Classic migratory pattern: counter incremented under a lock."""
    def main(node):
        x = node.array("x")
        for _ in range(3):
            node.lock_acquire(5)
            x[0] = x[0] + 1.0
            node.lock_release(5)
        node.barrier()
        return float(x[0])

    res, _ = run(4, main)
    assert res.returns == [12.0] * 4


def test_lock_transfer_carries_write_notices():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            node.lock_acquire(3)
            x[0:8] = 7.0
            node.lock_release(3)
            node.barrier()
            return None
        elif node.pid == 1:
            node.barrier()
            node.lock_acquire(3)
            total = float(x[0:8].sum())
            node.lock_release(3)
            return total
        node.barrier()
        return None

    res, _ = run(3, main)
    assert res.returns[1] == 56.0


def test_multiple_writers_on_one_page_merge():
    """False sharing: two writers of disjoint halves of one page."""
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:16] = 1.0
        else:
            x[16:32] = 2.0
        node.barrier()
        return float(x[0:32].sum())

    res, _ = run(2, main)
    assert res.returns == [48.0] * 2
    assert res.stats.diffs_created == 2


def test_diffs_carry_only_changed_bytes():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[5] = 1.0   # a single element: byte-level diff, <= 8 bytes
        node.barrier()
        return float(x[5])

    res, _ = run(2, main)
    assert res.returns == [1.0, 1.0]
    assert 0 < res.stats.diff_bytes_applied <= 8


def test_three_way_transitive_consistency():
    """P0's write reaches P2 through a lock chain via P1 (LRC causality)."""
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            node.lock_acquire(0)
            x[0] = 42.0
            node.lock_release(0)
            node.barrier()   # only used to order P1's acquire after P0's
            node.barrier()
            return None
        elif node.pid == 1:
            node.barrier()
            node.lock_acquire(0)
            node.lock_release(0)
            node.barrier()
            return None
        else:
            node.barrier()
            node.barrier()
            node.lock_acquire(0)
            val = float(x[0])
            node.lock_release(0)
            return val

    res, _ = run(3, main)
    assert res.returns[2] == 42.0


def test_repeated_iterations_accumulate_intervals():
    """Jacobi-like two-barrier loop keeps data consistent every sweep."""
    def main(node):
        x = node.array("x")
        n = node.nprocs
        chunk = 64 // n
        lo, hi = node.pid * chunk, (node.pid + 1) * chunk
        for it in range(4):
            node.barrier()
            x[lo:hi] = float(it + 1) * (node.pid + 1)
            node.barrier()
            total = float(x[0:64].sum())
        return total

    res, _ = run(4, main)
    expected = 4.0 * 16 * (1 + 2 + 3 + 4)
    assert res.returns == [expected] * 4


def test_write_fault_on_invalid_page_counts_once():
    """A write to an invalid page is a single segv, not read+write."""
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:32] = 3.0
        node.barrier()
        if node.pid == 1:
            x[0] = 9.0    # invalid page: fetch + twin in one fault
        node.barrier()
        return float(x[0])

    res, _ = run(2, main)
    assert res.returns == [9.0, 9.0]
    p1 = res.per_proc[1]
    assert p1.write_faults == 1
    assert p1.read_faults == 0


def test_stats_protect_and_twins_counted():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:8] = 1.0
        node.barrier()

    res, _ = run(2, main)
    assert res.per_proc[0].twins_created == 1
    assert res.per_proc[0].protect_ops > 0


def test_push_exchanges_sections_without_barrier():
    def main(node):
        x = node.array("x")
        me = node.pid
        x[me * 16:(me + 1) * 16] = float(me + 1)
        # Everyone reads its right neighbour's block.
        reads = [[Section.of("x", (((q + 1) % 2) * 16,
                                   ((q + 1) % 2) * 16 + 15))]
                 for q in range(2)]
        writes = [[Section.of("x", (q * 16, q * 16 + 15))]
                  for q in range(2)]
        node.push(reads, writes)
        other = (me + 1) % 2
        return float(x[other * 16:other * 16 + 16].sum())

    res, _ = run(2, main)
    assert res.returns == [32.0, 16.0]
    assert res.stats.pushes == 2
    # Push: one data message each way; the only barrier traffic is the
    # implicit exit barrier (2 messages at n=2).
    assert res.net.by_kind["push_data"] == 2
    assert res.messages == 4


def test_push_then_barrier_does_not_refetch():
    """Pages satisfied by a Push are not invalidated by its notices."""
    def main(node):
        x = node.array("x")
        me = node.pid
        x[me * 16:(me + 1) * 16] = float(me + 1)
        reads = [[Section.of("x", (0, 31))] for _ in range(2)]
        writes = [[Section.of("x", (q * 16, q * 16 + 15))]
                  for q in range(2)]
        node.push(reads, writes)
        node.barrier()
        val = float(x[0:32].sum())
        return val

    res, _ = run(2, main)
    assert res.returns == [48.0, 48.0]
    # After the barrier no further diff traffic should occur.
    assert res.net.by_kind.get("diff_req", 0) == 0


def test_deterministic_replay():
    """The same program produces byte-identical statistics twice."""
    def main(node):
        x = node.array("x")
        if node.pid % 2 == 0:
            x[node.pid * 8:(node.pid + 1) * 8] = 1.0
        node.barrier()
        s = float(x[0:32].sum())
        node.lock_acquire(2)
        x[40] = s
        node.lock_release(2)
        node.barrier()
        return float(x[40])

    res1, _ = run(4, main)
    res2, _ = run(4, main)
    assert res1.time == res2.time
    assert res1.messages == res2.messages
    assert res1.stats.as_dict() == res2.stats.as_dict()


def test_eager_diffing_is_equivalent_but_costlier():
    """The eager-diffing ablation changes cost, never results."""
    def main(node):
        x = node.array("x")
        chunk = 64 // node.nprocs
        lo, hi = node.pid * chunk, (node.pid + 1) * chunk
        for it in range(3):
            x[lo:hi] = float(it + 1) * (node.pid + 1)
            node.barrier()
            total = float(x[0:64].sum())
            node.barrier()
        return total

    def run_mode(eager):
        layout = SharedLayout(page_size=256)
        layout.add_array("x", (64,))
        system = TmSystem(nprocs=4, layout=layout, eager_diffing=eager)
        return system.run(main)

    lazy = run_mode(False)
    eager = run_mode(True)
    assert lazy.returns == eager.returns
    assert eager.stats.diffs_created >= lazy.stats.diffs_created
