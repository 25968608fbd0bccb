"""A fault-free nest runs as one section, and its charges are banked.

An untraced DSM run banks compute and may run a perfect affine nest
collapsed (``interp/lower.py``); a traced run does neither, so it is
the reference every run here is compared with.
"""

import numpy as np
import pytest

from repro.harness import RunSpec, run
from repro.harness.runner import run_seq
from repro.interp.runtime import BaseRuntime, DsmRuntime
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program
from repro.sim.engine import Process
from repro.telemetry import Telemetry
from repro.tm.node import TmNode

I, J = B.syms("i j")
P = B.sym("p")
BB, A, X, Y = (B.array_ref(n) for n in ("b", "a", "x", "y"))
#: One 8 x 8 column per 64-byte page.
PAGE = 64


def nest(j_lo, j_hi, body):
    return B.loop(J, j_lo, j_hi, [B.loop(I, 0, 7, body)])


def program(body, arrays=(("b", True),)):
    return Program("t", [ArrayDecl(name, (8, 8), shared=shared)
                         for name, shared in arrays], body)


def outcome(prog, traced=False, nprocs=2):
    return run(RunSpec(app=prog, params={}, nprocs=nprocs, page_size=PAGE,
                       telemetry=Telemetry() if traced else False))


@pytest.fixture
def collapsed(monkeypatch):
    """The ``(costs, ncols)`` of every collapsed nest that ran."""
    calls = []
    charge_columns = BaseRuntime.charge_columns

    def counted(rt, costs, ncols):
        calls.append((costs, ncols))
        charge_columns(rt, costs, ncols)

    monkeypatch.setattr(BaseRuntime, "charge_columns", counted)
    return calls


def test_a_nest_that_would_fault_runs_per_column(monkeypatch, collapsed):
    """Each processor writes its own columns, then reads the other's:
    both nests fault at entry, so they run column by column and their
    faults and charges interleave exactly as in the traced run."""
    other = (1 - P) * 4
    prog = program([
        nest(P * 4, P * 4 + 3, [B.assign(BB(I, J), I + J, cost=0.5)]),
        B.barrier(),
        nest(other, other + 3, [B.assign(A(I, J), BB(I, J) * 2.0,
                                         cost=0.25)]),
        B.barrier(),
    ], arrays=(("b", True), ("a", False)))
    log = []
    read, write = TmNode.ensure_read, TmNode.ensure_write

    def logged(ensure, kind):
        def ensure_logged(node, pages):
            for p in pages:
                if not node.passes((p,), kind == "r", kind == "w"):
                    log.append((node.pid, kind, p))
            ensure(node, pages)
        return ensure_logged

    monkeypatch.setattr(TmNode, "ensure_read", logged(read, "r"))
    monkeypatch.setattr(TmNode, "ensure_write", logged(write, "w"))
    dsm_charge = DsmRuntime.charge

    def charge_logged(rt, us):
        log.append((rt.pid, "charge", us))
        dsm_charge(rt, us)

    monkeypatch.setattr(DsmRuntime, "charge", charge_logged)
    fast = outcome(prog)
    fast_log, log[:] = list(log), []
    slow = outcome(prog, traced=True)
    assert collapsed == []
    for pid in (0, 1):      # each processor's own order
        assert [e for e in fast_log if e[0] == pid] == \
            [e for e in log if e[0] == pid]
    kinds = [k for pid, k, _ in log if pid == 0]
    assert kinds[:4] == ["w", "charge", "w", "charge"]
    assert kinds[8:12] == ["r", "charge", "r", "charge"]
    assert fast.time == slow.time
    assert fast.per_proc == slow.per_proc


def test_a_loop_carried_nest_is_not_collapsed(collapsed):
    """``a(i,j) = a(i,j-1) + 1`` reads what an earlier column wrote.
    Its pages are all writable by then -- the zeroing nest before it
    ran collapsed the second time -- yet it runs column by column, and
    matches the uniprocessor run (collapsed, each column would see the
    zeros)."""
    zero = nest(1, 7, [B.assign(BB(I, J), 0.0)])
    prog = program([
        B.loop(I, 0, 7, [B.assign(BB(I, 0), I * 1.0)]),
        zero, zero,
        nest(1, 7, [B.assign(BB(I, J), BB(I, J - 1) + 1.0)]),
        B.barrier()])
    fast = outcome(prog, nprocs=1)
    assert collapsed == [((8 * 0.05,), 7)]
    np.testing.assert_array_equal(fast.arrays["b"],
                                  run_seq(prog).arrays["b"])
    assert fast.arrays["b"][3, 7] == 3.0 + 7


def test_a_two_statement_body_banks_its_charges_per_column(
        monkeypatch, collapsed):
    banked = []
    flush = Process.flush

    def recorded(proc):
        if proc._bank and proc.pid == 0:
            banked.append(list(proc._bank))
        flush(proc)

    monkeypatch.setattr(Process, "flush", recorded)
    prog = program([
        nest(0, 2, [B.assign(X(I, J), 1.0, cost=0.5),
                    B.assign(Y(I, J), 2.0, cost=0.25)]),
        B.barrier()], arrays=(("x", False), ("y", False)))
    fast = outcome(prog, nprocs=1)
    assert collapsed == [((8 * 0.5, 8 * 0.25), 3)]
    assert banked == [[4.0, 2.0] * 3]
    assert fast.time == outcome(prog, nprocs=1, traced=True).time


def test_a_diff_request_served_while_compute_is_banked(monkeypatch,
                                                       collapsed):
    """P0 faults on P1's columns while P1 computes a long collapsed
    nest: the diff requests interrupt P1's banked phase, and the run
    ends when the traced run does."""
    stolen = []
    steal = Process.steal_cpu

    def recorded(proc, cost, name):
        stolen.append((proc.pid, bool(proc._bank)))
        steal(proc, cost, name)

    monkeypatch.setattr(Process, "steal_cpu", recorded)
    prog = program([
        nest(P * 4, P * 4 + 3, [B.assign(BB(I, J), I + J)]),
        B.barrier(),
        B.when(P.eq(0),
              [nest(4, 7, [B.assign(A(I, J), BB(I, J) + 1.0)])],
              [nest(0, 7, [B.assign(A(I, J), I * 2.0, cost=50.0)])]),
        B.barrier(),
    ], arrays=(("b", True), ("a", False)))
    fast = outcome(prog)
    assert (1, True) in stolen             # served inside P1's flush
    assert any(cols == 8 for _, cols in collapsed)
    slow = outcome(prog, traced=True)
    assert fast.net.by_kind["diff_req"] == 4
    assert fast.time == slow.time
    assert fast.per_proc == slow.per_proc
    np.testing.assert_array_equal(fast.arrays["b"], slow.arrays["b"])
