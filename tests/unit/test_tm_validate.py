"""Tests of the augmented run-time interface: Validate and variants."""

import pytest

from repro.capability import PLANES
from repro.memory import Section, SharedLayout
from repro.rt import AccessType
from repro.tm.coherence import protocols
from repro.tm.system import TmSystem

#: Every registered backend on both data planes.
CELLS = pytest.mark.parametrize("protocol,data_plane", [
    (proto, plane) for proto in protocols() for plane in PLANES])


def run(nprocs, main, page_size=256, arrays=(("x", (64,)),), **kw):
    layout = SharedLayout(page_size=page_size)
    for name, shape in arrays:
        layout.add_array(name, shape)
    system = TmSystem(nprocs=nprocs, layout=layout, **kw)
    return system.run(main), system


def test_validate_read_aggregates_fetches():
    """One Validate for a 4-page section: 2 messages, not 8."""
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:64] = 1.0   # two pages of 256B
        node.barrier()
        if node.pid == 1:
            node.validate([Section.of("x", (0, 63))], AccessType.READ)
            return float(x[0:64].sum())
        node.barrier()
        if node.pid == 0:
            node.barrier()   # placeholder; not reached by P1
        return None

    # Use a simpler 2-proc structure to count messages deterministically.
    def main2(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:64] = 1.0
        node.barrier()
        before = node.sys.net.stats.messages
        if node.pid == 1:
            node.validate([Section.of("x", (0, 63))], AccessType.READ)
            total = float(x[0:64].sum())
        else:
            total = None
        node.barrier()
        after = node.sys.net.stats.messages
        return (total, after - before)

    res, _ = run(2, main2)
    total, _ = res.returns[1]
    assert total == 64.0
    p1 = res.per_proc[1]
    # The Validate leaves no page faults for the subsequent reads.
    assert p1.read_faults == 0
    # One aggregated request/response pair.
    assert res.net.by_kind["diff_req"] == 1
    assert res.net.by_kind["diff_resp"] == 1


def test_validate_read_write_prepares_twins():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:32] = 1.0
        node.barrier()
        if node.pid == 1:
            node.validate([Section.of("x", (0, 31))], AccessType.READ_WRITE)
            x[0:32] = x[0:32] + 1.0
        node.barrier()
        return float(x[0:32].sum())

    res, _ = run(2, main)
    assert res.returns == [64.0, 64.0]
    p1 = res.per_proc[1]
    assert p1.segv == 0          # validate bypassed all faults
    assert p1.twins_created == 1  # but consistency is preserved


def test_validate_write_all_disables_twins_and_diffs():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            node.validate([Section.of("x", (0, 31))], AccessType.WRITE_ALL)
            x[0:32] = 5.0
        node.barrier()
        return float(x[0:32].sum())

    res, _ = run(2, main)
    assert res.returns == [160.0, 160.0]
    p0 = res.per_proc[0]
    assert p0.twins_created == 0
    assert p0.diffs_created == 0
    assert p0.segv == 0
    # The remote reader received a full page instead of a diff.
    assert p0.full_pages_served == 1


def test_write_all_full_page_costs_more_data_than_diff():
    """The Jacobi effect: WRITE_ALL ships whole pages of mostly-zero data."""
    def run_one(opt):
        def main(node):
            x = node.array("x")
            if node.pid == 0:
                if opt:
                    node.validate([Section.of("x", (0, 31))],
                                  AccessType.WRITE_ALL)
                x[3] = 1.0   # tiny change on a big page
            node.barrier()
            return float(x[3])

        res, _ = run(2, main)
        assert res.returns == [1.0, 1.0]
        return res.data_bytes

    assert run_one(opt=True) > run_one(opt=False)


def test_read_write_all_collapses_diff_accumulation():
    """The IS effect: migratory overwrites fetch one page, not k diffs."""
    def main(node):
        x = node.array("x")
        sec = Section.of("x", (0, 31))
        for turn in range(node.nprocs):
            node.lock_acquire(1)
            if True:
                node.validate([sec], AccessType.READ_WRITE_ALL)
                x[0:32] = x[0:32] + 1.0
            node.lock_release(1)
        node.barrier()
        return float(x[0])

    res, _ = run(4, main)
    assert res.returns == [16.0] * 4
    assert res.stats.diffs_created == 0


def test_validate_w_sync_piggybacks_on_lock():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            node.lock_acquire(0)
            x[0:32] = 2.0
            node.lock_release(0)
        node.barrier()
        if node.pid == 1:
            node.validate_w_sync([Section.of("x", (0, 31))],
                                 AccessType.READ)
            node.lock_acquire(0)
            total = float(x[0:32].sum())
            node.lock_release(0)
            node.barrier()
            return total
        node.barrier()
        return None

    res, _ = run(2, main)
    assert res.returns[1] == 64.0
    p1 = res.per_proc[1]
    # Diffs arrived with the lock grant: no faults, no diff requests.
    assert p1.read_faults == 0
    assert res.net.by_kind.get("diff_req", 0) == 0


def test_validate_w_sync_at_barrier_donates_diffs():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:32] = 3.0
        if node.pid != 0:
            node.validate_w_sync([Section.of("x", (0, 31))],
                                 AccessType.READ)
        node.barrier()
        total = float(x[0:32].sum())
        node.barrier()
        return total

    res, _ = run(4, main)
    assert res.returns == [96.0] * 4
    # Donations happen; identical content to 3 requesters → broadcast group.
    assert res.net.by_kind.get("diff_donate", 0) == 3
    assert res.net.by_kind.get("diff_req", 0) == 0


@CELLS
def test_async_validate_completes_at_first_fault(protocol, data_plane):
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:64] = 4.0
        node.barrier()
        if node.pid == 1:
            node.validate([Section.of("x", (0, 63))], AccessType.READ,
                          asynchronous=True)
            node.proc.advance(500.0)   # overlapped computation
            total = float(x[0:64].sum())   # first touch completes the plan
            node.barrier()
            return total
        node.barrier()
        return None

    res, _ = run(2, main, protocol=protocol, data_plane=data_plane)
    assert res.returns[1] == 256.0
    p1 = res.per_proc[1]
    assert p1.read_faults == 1      # exactly one completing fault


@CELLS
def test_async_validate_overlaps_communication(protocol, data_plane):
    """With enough independent compute, async beats sync wall-clock."""
    def make(asynchronous):
        def main(node):
            x = node.array("x")
            if node.pid == 0:
                x[0:64] = 1.0
            node.barrier()
            if node.pid == 1:
                node.validate([Section.of("x", (0, 63))], AccessType.READ,
                              asynchronous=asynchronous)
                node.proc.advance(2000.0)
                float(x[0:64].sum())
            node.barrier()
        return main

    kw = dict(protocol=protocol, data_plane=data_plane)
    res_sync, _ = run(2, make(False), **kw)
    res_async, _ = run(2, make(True), **kw)
    assert res_async.time < res_sync.time


@CELLS
def test_push_completes_an_outstanding_async_validate_first(
        protocol, data_plane):
    """A Push drains an outstanding asynchronous Validate, as a lock
    acquire and a barrier do: completed after the Push, its fetch
    (begun before P0's second write) would overwrite the pushed bytes
    with the old ones and leave the page valid."""
    page0 = [Section.of("x", (0, 31))]     # x[0:32] is page 0

    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:32] = 1.0
        node.barrier()
        if node.pid == 0:
            node.proc.advance(2000.0)      # P1's request is served
            x[0:32] = 2.0
        else:
            node.validate(page0, AccessType.READ, asynchronous=True)
        node.push([[], page0], [page0, []])
        after_push = float(x[0:32].sum())
        node.barrier()
        node.barrier()
        return after_push, float(x[0:32].sum())

    res, _ = run(2, main, protocol=protocol, data_plane=data_plane)
    assert res.returns[1] == (64.0, 64.0)


def test_validate_counts():
    def main(node):
        x = node.array("x")
        node.validate([Section.of("x", (0, 31))], AccessType.WRITE_ALL)
        x[0:32] = 1.0
        node.barrier()

    res, _ = run(2, main)
    assert res.stats.validates == 2


def test_write_all_partial_pages_keep_twins():
    """Pages only partly covered by a WRITE_ALL section stay protected."""
    def main(node):
        x = node.array("x")
        # 256B pages = 32 doubles; section covers 1.5 pages: elements 0..47.
        if node.pid == 0:
            node.validate([Section.of("x", (0, 47))], AccessType.WRITE_ALL)
            x[0:48] = 2.0
        if node.pid == 1:
            x[48:64] = 3.0   # false sharing on page 1 with P0
        node.barrier()
        return float(x[0:64].sum())

    res, _ = run(2, main)
    expected = 48 * 2.0 + 16 * 3.0
    assert res.returns == [expected] * 2
    p0 = res.per_proc[0]
    assert p0.twins_created == 1   # the partial page twins normally
