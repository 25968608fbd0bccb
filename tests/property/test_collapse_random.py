"""Property tests: a collapsed nest computes what its columns compute.

Random perfect affine nests, two or three loops deep, run twice on
:class:`SeqRuntime`: as is, which lets the lowered program take the
collapsed form (each statement one N-D numpy operation, the columns'
charges replayed in order), and column by column, on accessors that
decline every collapse.  Every array must be bit-identical and the
clock equal; the reference must collapse nothing, and the other side
must collapse on some of the examples.

Stores lay the nest variables over their subscripts in any order, so
reads get transposed; a read may skip variables, be constant, shifted
or strided, be the variable itself, the element being written, or
another statement's output -- which must send the nest back to its
columns whenever the sections meet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import Interpreter, SeqRuntime
from repro.interp.runtime import LocalAccessor
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program

SIZE = 16           # every generated subscript stays below this
VARS = B.syms("k j i")
X1, X2, X3 = (B.array_ref(n) for n in ("x1", "x2", "x3"))
INPUTS = {"x1": (SIZE,), "x2": (SIZE, SIZE), "x3": (SIZE, SIZE, SIZE)}


class CountingSeq(SeqRuntime):
    """The uniprocessor runtime, counting the nests it ran collapsed
    (not one whose every statement is another processor's: that runs
    nothing, collapsed or not, and consults no accessor)."""

    def __init__(self, program) -> None:
        super().__init__(program)
        self.collapsed = 0

    def charge_columns(self, costs, ncols) -> None:
        self.collapsed += bool(costs)
        super().charge_columns(costs, ncols)


class Declining(LocalAccessor):
    """A local array that never lets a nest collapse."""

    def passes(self, dims, read: bool, write: bool) -> bool:
        return False


class ColumnSeq(CountingSeq):
    """The uniprocessor runtime held to its columns: the reference."""

    def __init__(self, program) -> None:
        super().__init__(program)
        self._accessors = {name: Declining(acc.whole())
                           for name, acc in self._accessors.items()}


@st.composite
def subscript(draw, var):
    return draw(st.integers(1, 2)) * var + draw(st.integers(0, 2))


@st.composite
def term(draw, nest_vars, stores):
    kind = draw(st.sampled_from(
        ["perm", "partial", "const", "mixed", "var", "other", "self"]))
    if kind == "perm":
        order = draw(st.permutations(nest_vars))
        ref = (X2, X3)[len(nest_vars) - 2]
        return ref(*[draw(subscript(v)) for v in order])
    if kind == "partial":
        return X1(draw(subscript(draw(st.sampled_from(nest_vars)))))
    if kind == "const":
        return X1(draw(st.integers(0, SIZE - 1)))
    if kind == "mixed":
        v = draw(subscript(draw(st.sampled_from(nest_vars))))
        c = draw(st.integers(0, SIZE - 1))
        return X2(v, c) if draw(st.booleans()) else X2(c, v)
    if kind == "var":
        return draw(st.sampled_from(nest_vars)) * 0.5
    if kind == "other" and stores:
        return draw(st.sampled_from(stores))
    return None                                 # "self": added below


@st.composite
def nest(draw):
    depth = draw(st.integers(2, 3))
    nest_vars = VARS[3 - depth:]
    bounds = []
    for _ in nest_vars:
        lo = draw(st.integers(0, 2))
        bounds.append((lo, draw(st.integers(lo - 1, lo + 4)),
                       draw(st.integers(1, 2))))
    stores, body = [], []
    for k in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(nest_vars))
        lhs = B.array_ref(f"o{k}")(*[draw(subscript(v)) for v in order])
        rhs = draw(st.floats(-2, 2, width=16))
        for _ in range(draw(st.integers(1, 3))):
            t = draw(term(nest_vars, stores))
            rhs = rhs + (lhs if t is None else t)
        owner = draw(st.sampled_from([None, B.num(0), B.num(1)]))
        cost = draw(st.sampled_from([0.125, 0.25, 0.5]))
        body.append(B.assign(lhs, rhs, cost=cost, owner=owner))
        stores.append(lhs)
    stmts = body
    for var, (lo, hi, step) in reversed(list(zip(nest_vars, bounds))):
        stmts = [B.loop(var, lo, hi, stmts, step=step)]
    arrays = [ArrayDecl(n, shape) for n, shape in INPUTS.items()] + [
        ArrayDecl(f"o{k}", (SIZE,) * depth) for k in range(len(body))]
    return Program("nest", arrays, stmts)


def run(prog, runtime):
    rt = runtime(prog)
    rng = np.random.default_rng(7)
    for name, shape in INPUTS.items():
        rt.accessor(name).whole()[...] = rng.integers(-8, 8, shape) / 4.0
    Interpreter(prog, rt).run()
    return rt


def outputs(rt, prog):
    return {d.name: rt.accessor(d.name).whole() for d in prog.arrays
            if d.name.startswith("o")}


def test_collapsed_and_column_nests_agree():
    collapsed = []

    @given(nest())
    @settings(max_examples=200, deadline=None)
    def agree(prog):
        cols, fast = run(prog, ColumnSeq), run(prog, CountingSeq)
        assert cols.collapsed == 0
        collapsed.append(fast.collapsed)
        want, got = outputs(cols, prog), outputs(fast, prog)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name],
                                          err_msg=name)
        assert fast.time == cols.time

    agree()
    assert any(collapsed)


def test_generated_nests_do_collapse():
    """The property above is vacuous unless the collapsed form runs:
    transposed, partial and constant reads, and the variable itself."""
    k, j, i = VARS
    o = B.array_ref("o0")
    prog = Program("nest", [ArrayDecl(n, s) for n, s in INPUTS.items()]
                   + [ArrayDecl("o0", (SIZE,) * 3)], [
        B.loop(k, 0, 3, [B.loop(j, 1, 5, [B.loop(i, 0, 6, [
            B.assign(o(j, 2 * i + 1, k),
                     X3(i, k, j) + X2(j, 3) + X1(k + 1) + X1(9) + i * 0.5)
        ], step=2)])])])
    fast = run(prog, CountingSeq)
    assert fast.collapsed == 1
    np.testing.assert_array_equal(outputs(fast, prog)["o0"],
                                  outputs(run(prog, ColumnSeq), prog)["o0"])


def test_meeting_sections_fall_back_to_columns():
    """A read that meets another statement's store, and two stores
    that meet, each keep the nest on its columns."""
    j, i = VARS[1:]
    o0, o1 = B.array_ref("o0"), B.array_ref("o1")
    decls = [ArrayDecl(n, s) for n, s in INPUTS.items()] + [
        ArrayDecl(n, (SIZE, SIZE)) for n in ("o0", "o1")]
    for body in ([B.assign(o0(i, j), X2(i, j)),
                  B.assign(o1(i, j), o0(i + 1, j))],
                 [B.assign(o0(i, j), 1.0), B.assign(o0(i, j + 1), 2.0)]):
        prog = Program("nest", decls, [
            B.loop(j, 0, 4, [B.loop(i, 0, 4, body)])])
        fast, cols = run(prog, CountingSeq), run(prog, ColumnSeq)
        assert fast.collapsed == 0
        for name, want in outputs(cols, prog).items():
            np.testing.assert_array_equal(outputs(fast, prog)[name], want)
