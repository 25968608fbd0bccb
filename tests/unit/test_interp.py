"""Unit tests for the IR interpreter (sequential runtime)."""

import numpy as np
import pytest

from repro.errors import InterpError
from repro.harness.runner import run_seq
from repro.interp import Interpreter, SeqRuntime
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program


def run(body, arrays, params=None):
    prog = Program("t", arrays, body, params or {})
    rt = SeqRuntime(prog)
    Interpreter(prog, rt).run()
    return rt


def arr(rt, name):
    return rt.accessor(name).whole()


def test_vectorized_affine_assign():
    i = B.sym("i")
    x = B.array_ref("x")
    rt = run([B.loop(i, 0, 9, [B.assign(x(i), 2 * i + 1)])],
             [ArrayDecl("x", (10,))])
    np.testing.assert_allclose(arr(rt, "x"), 2 * np.arange(10) + 1)


def test_vectorized_shifted_read():
    i = B.sym("i")
    x, y = B.array_ref("x"), B.array_ref("y")
    rt = run([
        B.loop(i, 0, 9, [B.assign(x(i), i * 1.0)]),
        B.loop(i, 1, 8, [B.assign(y(i), x(i - 1) + x(i + 1))]),
    ], [ArrayDecl("x", (10,)), ArrayDecl("y", (10,))])
    expected = np.zeros(10)
    expected[1:9] = np.arange(0, 8) + np.arange(2, 10)
    np.testing.assert_allclose(arr(rt, "y"), expected)


def test_strided_loop():
    i = B.sym("i")
    x = B.array_ref("x")
    rt = run([B.loop(i, 0, 9, [B.assign(x(i), 5.0)], step=3)],
             [ArrayDecl("x", (10,))])
    expected = np.zeros(10)
    expected[0::3] = 5.0
    np.testing.assert_allclose(arr(rt, "x"), expected)


def test_two_dim_loop_nest():
    i, j = B.syms("i j")
    a = B.array_ref("a")
    rt = run([B.loop(j, 0, 3, [B.loop(i, 0, 4, [
        B.assign(a(i, j), i + 10 * j)])])],
        [ArrayDecl("a", (5, 4))])
    ii = np.arange(5)[:, None]
    jj = np.arange(4)[None, :]
    np.testing.assert_allclose(arr(rt, "a"), ii + 10 * jj)


def test_scalar_assign_and_locals():
    x = B.array_ref("x")
    rt = run([
        B.local("v", 3 + 4),
        B.assign(x(2), B.sym("v") * 2),
    ], [ArrayDecl("x", (4,))])
    assert arr(rt, "x")[2] == 14.0


def test_if_statement():
    x = B.array_ref("x")
    rt = run([
        B.local("flag", 1),
        B.when(B.sym("flag").eq(1), [B.assign(x(0), 1.0)],
               [B.assign(x(0), 2.0)]),
        B.when(B.sym("flag").eq(0), [B.assign(x(1), 1.0)],
               [B.assign(x(1), 2.0)]),
    ], [ArrayDecl("x", (4,))])
    np.testing.assert_allclose(arr(rt, "x")[:2], [1.0, 2.0])


def test_owner_gated_assign_skipped_on_other_procs():
    x = B.array_ref("x")
    prog = Program("t", [ArrayDecl("x", (4,))],
                   [B.assign(x(0), 1.0, owner=B.num(3))])
    rt = SeqRuntime(prog)      # pid 0 != owner 3
    Interpreter(prog, rt).run()
    assert arr(rt, "x")[0] == 0.0


def test_kernel_views_and_cost():
    x = B.array_ref("x")

    def fn(env, views):
        views["w0"][...] = np.asarray(views["r0"]) * 2.0

    body = [
        B.loop(B.sym("i"), 0, 7, [B.assign(x(B.sym("i")), 1.0 + 0)]),
        B.kernel("dbl", reads=[B.spec("x", (0, 7))],
                 writes=[B.spec("x", (0, 7))], fn=fn, cost=42.0),
    ]
    rt = run(body, [ArrayDecl("x", (8,))])
    np.testing.assert_allclose(arr(rt, "x"), np.full(8, 2.0))
    assert rt.time >= 42.0


def test_indirect_gather():
    x, idx, out = (B.array_ref(n) for n in ("x", "idx", "out"))
    i = B.sym("i")
    body = [
        B.loop(i, 0, 7, [B.assign(x(i), i * 10.0)]),
        B.loop(i, 0, 7, [B.assign(idx(i), 7 - i)]),
        B.loop(i, 0, 7, [B.assign(out(i), x(idx(i)))]),
    ]
    rt = run(body, [ArrayDecl("x", (8,)), ArrayDecl("idx", (8,)),
                    ArrayDecl("out", (8,))])
    np.testing.assert_allclose(arr(rt, "out"), np.arange(7, -1, -1) * 10.0)


def test_float_division_and_unary():
    from repro.lang.expr import Un
    x = B.array_ref("x")
    i = B.sym("i")
    rt = run([B.loop(i, 1, 4, [B.assign(x(i), Un("sqrt", i * i * 1.0))])],
             [ArrayDecl("x", (5,))])
    np.testing.assert_allclose(arr(rt, "x")[1:], [1, 2, 3, 4])


def test_cost_accounting_matches_counts():
    i = B.sym("i")
    x = B.array_ref("x")
    rt = run([B.loop(i, 0, 99, [B.assign(x(i), 1.0 + 0, cost=0.5)])],
             [ArrayDecl("x", (100,))])
    assert rt.time == pytest.approx(50.0)


def test_empty_loop_executes_nothing():
    i = B.sym("i")
    x = B.array_ref("x")
    rt = run([B.loop(i, 5, 4, [B.assign(x(i), 1.0)])],
             [ArrayDecl("x", (8,))])
    assert arr(rt, "x").sum() == 0.0


def test_unbound_symbol_raises():
    x = B.array_ref("x")
    with pytest.raises(InterpError):
        run([B.assign(x(0), B.sym("nope"))], [ArrayDecl("x", (4,))])


def test_descending_read_is_gathered():
    """A descending *read* b(9-i) is not a section; the loop still runs
    as whole-section operations, with that operand gathered."""
    i = B.sym("i")
    x, y = B.array_ref("x"), B.array_ref("y")
    body = [
        B.loop(i, 0, 9, [B.assign(x(i), i * 1.0)]),
        B.loop(i, 0, 9, [B.assign(y(i), x(9 - i))]),
    ]
    rt = run(body, [ArrayDecl("x", (10,)), ArrayDecl("y", (10,))])
    np.testing.assert_allclose(arr(rt, "y"), np.arange(9, -1, -1))
    assert "_gather(" in rt.program.lowered.source
    assert "for env['i']" not in rt.program.lowered.source


@pytest.mark.parametrize("store", ["descending", "indirect"])
def test_descending_or_indirect_store_runs_point_by_point(store):
    """Only a *store* that is not an ascending affine section makes the
    loop fall back to point-by-point evaluation."""
    i = B.sym("i")
    x, y, idx = B.array_ref("x"), B.array_ref("y"), B.array_ref("idx")
    lhs = y(9 - i) if store == "descending" else y(idx(i))
    body = [
        B.loop(i, 0, 9, [B.assign(x(i), i * 1.0),
                         B.assign(idx(i), 9 - i)]),
        B.loop(i, 0, 9, [B.assign(lhs, x(i), cost=0.25)]),
    ]
    rt = run(body, [ArrayDecl("x", (10,)), ArrayDecl("y", (10,)),
                    ArrayDecl("idx", (10,))])
    np.testing.assert_allclose(arr(rt, "y"), np.arange(9, -1, -1))
    assert rt.program.lowered.source.count("for env['i']") == 1


def test_partly_vectorisable_body_runs_once():
    """Vectorisability is decided for the whole body before anything
    executes: a body whose second statement must run point by point used
    to execute (and charge) its first statement twice."""
    i = B.sym("i")
    x, y, z = B.array_ref("x"), B.array_ref("y"), B.array_ref("z")
    body = [
        B.loop(i, 0, 9, [B.assign(x(i), i * 1.0, cost=0.0)]),
        B.loop(i, 0, 9, [B.assign(z(i), z(i) + 1.0, cost=0.5),
                         B.assign(y(9 - i), x(i), cost=0.25)]),
    ]
    rt = run(body, [ArrayDecl(n, (10,)) for n in "xyz"])
    np.testing.assert_array_equal(arr(rt, "z"), np.ones(10))
    np.testing.assert_array_equal(arr(rt, "y"), arr(rt, "x")[::-1])
    assert rt.time == 10 * 0.5 + 10 * 0.25


def test_run_seq_returns_shared_arrays_only():
    from repro.apps import get_app
    app = get_app("jacobi")
    seq = run_seq(app.program("tiny", 1))
    assert set(seq.arrays) == {"b"}   # 'a' is private scratch
