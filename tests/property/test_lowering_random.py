"""Property tests: the lowered program's two loop forms agree.

Random affine loop nests run twice on :class:`SeqRuntime`: as generated
(the innermost loop lowered to whole-section operations wherever its
body allows) and with every innermost body wrapped in a ``ProcCall``,
which is not an ``Assign`` and therefore forces point-by-point
evaluation.  Both must leave every array and the clock identical.  The
programs write each output array from one statement only and read inputs
or the element being written, so statement-at-a-time and
iteration-at-a-time orders are both valid schedules of the same loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import layout_for
from repro.interp import DsmRuntime, Interpreter, SeqRuntime
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program
from repro.tm.system import TmSystem

SIZE = 48           # every generated subscript stays below this
I, J, K = B.syms("i j k")
X, G, IDX = (B.array_ref(n) for n in ("x", "g", "idx"))


@st.composite
def read_term(draw, depth):
    """One right-hand-side term: a read of an input array."""
    kind = draw(st.sampled_from(
        ["shifted", "strided", "invariant", "indirect", "descending",
         "outer", "var"]))
    if kind == "shifted":
        return X(I + draw(st.integers(0, 4)))
    if kind == "strided":
        return X(draw(st.integers(2, 3)) * I + draw(st.integers(0, 4)))
    if kind == "invariant":
        return X(draw(st.integers(0, SIZE - 1)))
    if kind == "indirect":
        return X(IDX(I))
    if kind == "descending":
        return X(draw(st.integers(10, 20)) - I)
    if kind == "outer" and depth > 1:
        return G(I + draw(st.integers(0, 2)), J)
    return I * 0.5


@st.composite
def nest(draw):
    depth = draw(st.integers(1, 3))
    nstmts = draw(st.integers(1, 3))
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo - 1, 10))          # lo - 1: an empty loop
    step = draw(st.integers(1, 3))
    body, decls = [], []
    for k in range(nstmts):
        out = B.array_ref(f"o{k}")
        coef = draw(st.integers(1, 3))
        shift = draw(st.integers(0, 4))
        two_d = depth > 1 and draw(st.booleans())
        lhs = out(coef * I + shift, J) if two_d else out(coef * I + shift)
        decls.append(ArrayDecl(f"o{k}", (SIZE, 4) if two_d else (SIZE,)))
        rhs = draw(st.floats(-2, 2, width=16))
        for _ in range(draw(st.integers(1, 3))):
            rhs = rhs + draw(read_term(depth))
        if draw(st.booleans()):
            rhs = rhs + lhs                     # the element being written
        owner = draw(st.sampled_from([None, B.num(0), B.num(1)]))
        cost = draw(st.sampled_from([0.125, 0.25, 0.5]))
        body.append(B.assign(lhs, rhs, cost=cost, owner=owner))
    return depth, (lo, hi, step), body, decls


def build(depth, bounds, body, decls, pointwise):
    lo, hi, step = bounds
    inner = [B.proc("point", body)] if pointwise else body
    stmts = [B.loop(I, lo, hi, inner, step=step)]
    if depth > 1:
        stmts = [B.loop(J, 0, 3, stmts)]
    if depth > 2:
        stmts = [B.loop(K, 1, 2, stmts)]
    arrays = [ArrayDecl("x", (SIZE,)), ArrayDecl("idx", (SIZE,)),
              ArrayDecl("g", (SIZE, 4))] + decls
    return Program("nest", arrays, stmts)


def run_seq(prog):
    rt = SeqRuntime(prog)
    rng = np.random.default_rng(7)
    rt.accessor("x").whole()[:] = rng.integers(-8, 8, SIZE) / 4.0
    rt.accessor("g").whole()[:] = rng.integers(-8, 8, (SIZE, 4)) / 4.0
    rt.accessor("idx").whole()[:] = rng.permutation(SIZE)
    Interpreter(prog, rt).run()
    return rt


@given(nest())
@settings(max_examples=150, deadline=None)
def test_vectorised_and_pointwise_loops_agree(case):
    depth, bounds, body, decls = case
    vec = run_seq(build(depth, bounds, body, decls, pointwise=False))
    ref = run_seq(build(depth, bounds, body, decls, pointwise=True))
    for decl in decls:
        np.testing.assert_array_equal(
            vec.accessor(decl.name).whole(),
            ref.accessor(decl.name).whole(), err_msg=decl.name)
    assert vec.time == ref.time


def test_generated_nests_do_vectorise():
    """The property above is vacuous unless the unwrapped form really
    takes the whole-section path."""
    x, o = B.array_ref("x"), B.array_ref("o0")
    body = [B.assign(o(2 * I + 1), x(I) + x(12 - I) + x(IDX(I)))]
    decls = [ArrayDecl("o0", (SIZE,))]
    vec = build(1, (0, 9, 1), body, decls, pointwise=False)
    ref = build(1, (0, 9, 1), body, decls, pointwise=True)
    Interpreter(vec, SeqRuntime(vec))
    Interpreter(ref, SeqRuntime(ref))
    assert "for env['i']" not in vec.lowered.source
    assert "for env['i']" in ref.lowered.source


def test_processors_share_one_lowered_program():
    """One run lowers its program once; ``p``, ``nprocs`` and Locals are
    each processor's own."""
    out = B.array_ref("out")
    prog = Program("spmd", [ArrayDecl("out", (8,))], [
        B.local("mine", B.sym("p") * 10 + B.sym("nprocs")),
        B.loop(I, B.sym("p") * 4, B.sym("p") * 4 + 3,
               [B.assign(out(I), B.sym("mine") + I)]),
        B.barrier(),
    ])
    system = TmSystem(nprocs=2, layout=layout_for(prog, page_size=32))
    seen = {}

    def main(node):
        interp = Interpreter(prog, DsmRuntime(node, prog))
        interp.run()
        seen[node.pid] = (interp.lowered, dict(interp.env))

    system.run(main)
    (low0, env0), (low1, env1) = seen[0], seen[1]
    assert low0 is low1 is prog.lowered
    assert (env0["p"], env0["nprocs"], env0["mine"]) == (0, 2, 2)
    assert (env1["p"], env1["nprocs"], env1["mine"]) == (1, 2, 12)
    np.testing.assert_array_equal(
        system.snapshot()["out"],
        [2, 3, 4, 5, 16, 17, 18, 19])
