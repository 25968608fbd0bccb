"""Unit tests for the XHPF-like data-parallel lowering."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.compiler.hpf import compile_xhpf
from repro.errors import HpfError
from repro.harness import run
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program


def test_refuses_locks():
    body = [
        B.acquire(0),
        B.release(0),
        B.barrier("B"),
    ]
    prog = Program("locky", [ArrayDecl("x", (8,))], body)
    with pytest.raises(HpfError, match="lock"):
        compile_xhpf(prog)


def test_refuses_indirect_kernels():
    def fn(env, views):
        pass

    body = [
        B.kernel("k", reads=[B.spec("x", (0, 7))], writes=[],
                 fn=fn, indirect=True),
        B.barrier("B"),
    ]
    prog = Program("indirect", [ArrayDecl("x", (8,))], body)
    with pytest.raises(HpfError, match="indirect"):
        compile_xhpf(prog)


def test_refuses_is():
    app = get_app("is")
    with pytest.raises(HpfError):
        compile_xhpf(app.program("tiny", 4))


def test_compiles_the_five_parallelizable_apps():
    for name in ("jacobi", "fft3d", "shallow", "gauss", "mgs"):
        app = get_app(name)
        plan = compile_xhpf(app.program("tiny", 4))
        assert plan.by_barrier, name


def test_exchange_covers_multi_barrier_gap():
    """Data written before barrier 1 but read only after barrier 2 must
    still arrive (the pending-writes bookkeeping)."""
    i = B.sym("i")
    p = B.sym("p")
    x, y = B.array_ref("x"), B.array_ref("y")
    body = [
        B.local("lo", p * 8, partition=True),
        B.local("hi", (p + 1) * 8 - 1, partition=True),
        B.loop(i, B.sym("lo"), B.sym("hi"), [
            B.assign(x(i), 1.0 * i),
        ]),
        B.barrier("B1"),
        # Nothing reads x here.
        B.loop(i, B.sym("lo"), B.sym("hi"), [
            B.assign(y(i), 2.0),
        ]),
        B.barrier("B2"),
        # Now everyone reads the whole of x.
        B.loop(i, 0, 15, [
            B.assign(y(i), x(i) + 1.0, owner=B.num(0)),
        ]),
        B.barrier("B3"),
    ]
    prog = Program("gap", [ArrayDecl("x", (16,)), ArrayDecl("y", (16,))],
                   body)
    res = run(prog, mode="xhpf", nprocs=2)
    np.testing.assert_allclose(res.arrays["x"], np.arange(16.0))
    np.testing.assert_allclose(res.arrays["y"], np.arange(16.0) + 1.0)


def test_jacobi_message_count_matches_hand_coded():
    """XHPF Jacobi exchanges exactly the boundary columns: the same
    2(n-1) messages per iteration as the hand-coded version."""
    n = 4
    r1 = run("jacobi", mode="xhpf", params={"M": 64, "N": 64, "iters": 1},
             nprocs=n)
    r3 = run("jacobi", mode="xhpf", params={"M": 64, "N": 64, "iters": 3},
             nprocs=n)
    per_iter = (r3.messages - r1.messages) / 2
    assert per_iter == 2 * (n - 1)


def test_owner_gated_writes_ship_from_owner_only():
    i = B.sym("i")
    x = B.array_ref("x")
    body = [
        B.loop(i, 0, 7, [B.assign(x(i), 5.0, owner=B.num(2))]),
        B.barrier("B1"),
        B.loop(i, 0, 7, [B.assign(x(i), x(i) + 1.0, owner=B.num(0))]),
        B.barrier("B2"),
    ]
    prog = Program("own", [ArrayDecl("x", (8,))], body)
    res = run(prog, mode="xhpf", nprocs=4)
    np.testing.assert_allclose(res.arrays["x"], np.full(8, 6.0))
    # One shipment P2 -> P0 at B1, one P0 -> everyone-who-reads at B2.
    assert res.messages >= 1
