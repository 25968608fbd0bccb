"""Unit tests for the message-passing library (PVMe stand-in)."""

import numpy as np
import pytest

from repro.machine import MachineConfig
from repro.mp import MpSystem
from repro.telemetry import Telemetry


def run(nprocs, main):
    system = MpSystem(nprocs=nprocs)
    return system.run(main)


def test_send_recv_array_is_copied():
    def main(comm):
        if comm.pid == 0:
            data = np.arange(4.0)
            comm.send(1, data)
            data[:] = -1            # mutation after send must not leak
        else:
            got = comm.recv(src=0)
            return got.sum()

    res = run(2, main)
    assert res.returns[1] == 6.0


def test_bcast_delivers_to_all():
    def main(comm):
        if comm.pid == 2:
            return comm.bcast(2, np.full(3, 7.0)).sum()
        return comm.bcast(2).sum()

    res = run(4, main)
    assert res.returns == [21.0] * 4
    # n-1 point-to-point messages.
    assert res.net.by_kind["mp"] == 3


def test_bcast_pipelining_is_cheaper_than_sends():
    cfg = MachineConfig()

    def bcast_main(comm):
        if comm.pid == 0:
            comm.bcast(0, np.zeros(1))
            return comm.proc.engine.now
        comm.bcast(0)
        return None

    def sends_main(comm):
        if comm.pid == 0:
            for q in range(1, comm.nprocs):
                comm.send(q, np.zeros(1))
            return comm.proc.engine.now
        comm.recv(src=0)
        return None

    t_bcast = run(8, bcast_main).returns[0]
    t_sends = run(8, sends_main).returns[0]
    assert t_bcast < t_sends


def test_barrier_synchronizes():
    def main(comm):
        comm.compute(100.0 * comm.pid)
        comm.barrier()
        return comm.proc.engine.now

    res = run(4, main)
    # Nobody passes before the slowest processor's 300 us of compute.
    assert min(res.returns) >= 300.0
    # Departures stagger by the master's serialized sends only.
    assert max(res.returns) - min(res.returns) < 500.0


def test_a_barrier_wait_starts_where_the_banked_compute_ends():
    """Compute is banked, traced or not; the barrier reads the clock
    for its wait span, so it spends the bank first."""
    tel = Telemetry()

    def main(comm):
        comm.compute(10.0 + 40.0 * comm.pid)
        comm.barrier()

    MpSystem(nprocs=2, telemetry=tel).run(main)
    for pid in (0, 1):
        spans = [s for s in tel.spans.spans if s.pid == pid]
        compute = [s for s in spans if s.name == "compute"]
        wait = [s for s in spans if s.name == "wait.barrier"]
        assert len(compute) == len(wait) == 1
        assert wait[0].t0 == compute[0].t1 == 10.0 + 40.0 * pid


def test_allreduce_sum():
    def main(comm):
        return comm.allreduce_sum(float(comm.pid + 1))

    res = run(4, main)
    assert res.returns == [10.0] * 4


def test_message_sizes_counted():
    def main(comm):
        if comm.pid == 0:
            comm.send(1, np.zeros(100))   # 800 bytes
        else:
            comm.recv(src=0)

    res = run(2, main)
    cfg = MachineConfig()
    assert res.net.bytes == 800 + cfg.header_bytes


def test_tag_matching_out_of_order():
    def main(comm):
        if comm.pid == 0:
            comm.send(1, 1.0, tag="a")
            comm.send(1, 2.0, tag="b")
        else:
            b = comm.recv(src=0, tag="b")
            a = comm.recv(src=0, tag="a")
            return (a, b)

    res = run(2, main)
    assert res.returns[1] == (1.0, 2.0)


def test_no_interrupt_cost_for_posted_receives():
    """MP receivers never pay the interrupt cost (paper Section 5)."""
    cfg = MachineConfig()

    def main(comm):
        if comm.pid == 0:
            comm.send(1, None)
        else:
            comm.recv(src=0)
            return comm.proc.engine.now

    res = run(2, main)
    expected = cfg.send_overhead + cfg.wire_time(0) + cfg.recv_overhead
    assert res.returns[1] == pytest.approx(expected)
