"""Unit tests for symbolic regular section descriptors."""

from repro.compiler.rsd import RSD, linexpr_to_expr
from repro.interp.lower import compile_int
from repro.lang.expr import LinExpr, Sym, linearize


def eval_int(expr, env):
    return compile_int(expr)(env)


def lin(expr, loop_vars=()):
    return linearize(expr, set(loop_vars))


def c(v):
    return LinExpr.constant(v)


def rsd1(lo, hi, step=1, array="a"):
    return RSD(array, ((lo, hi, step),))


def test_point_and_expand_shifted():
    i = Sym("i")
    r = RSD.point("a", (lin(i - 1, ["i"]),))
    out = r.expand("i", c(1), c(10), 1)
    (lo, hi, step), = out.dims
    assert lo.const == 0 and hi.const == 9 and step == 1
    assert out.exact


def test_expand_strided():
    i = Sym("i")
    r = RSD.point("a", (lin(2 * i, ["i"]),))
    out = r.expand("i", c(0), c(5), 1)
    assert out.dims[0][2] == 2


def test_expand_symbolic_bounds():
    i = Sym("i")
    begin, end = lin(Sym("begin")), lin(Sym("end"))
    r = RSD.point("a", (lin(i + 1, ["i"]),))
    out = r.expand("i", begin, end, 1)
    lo, hi, step = out.dims[0]
    assert lo.coef("begin") == 1 and lo.const == 1
    assert hi.coef("end") == 1 and hi.const == 1


def test_expand_trapped_negative_range():
    """Negative coefficients flip bounds."""
    i = Sym("i")
    r = RSD.point("a", (lin(10 - i, ["i"]),))
    out = r.expand("i", c(1), c(4), 1)
    lo, hi, step = out.dims[0]
    assert lo.const == 6 and hi.const == 9 and step == 1


def test_union_jacobi_stencil():
    """The paper's Section 4.3 union: b reads collapse to
    [0, M-1 : begin-1, end+1] (0-based)."""
    begin, end = Sym("begin"), Sym("end")
    rows_full = (c(0), c(63), 1)
    parts = [
        RSD("b", (rows_full, (lin(begin), lin(end), 1))),
        RSD("b", (rows_full, (lin(begin - 1), lin(end - 1), 1))),
        RSD("b", (rows_full, (lin(begin + 1), lin(end + 1), 1))),
    ]
    u = parts[0]
    for p in parts[1:]:
        u = u.union(p)
        assert u is not None
    lo, hi, step = u.dims[1]
    assert lo.coef("begin") == 1 and lo.const == -1
    assert hi.coef("end") == 1 and hi.const == 1


def test_union_adjacent_pieces_exact():
    """[0,0] U [1,M-2] U [M-1,M-1] == [0,M-1], exactly (Shallow columns)."""
    M = 32
    u = rsd1(c(0), c(0)).union(rsd1(c(1), c(M - 2)))
    u = u.union(rsd1(c(M - 1), c(M - 1)))
    assert u.exact
    assert u.dims[0][0].const == 0 and u.dims[0][1].const == M - 1


def test_union_incomparable_is_none():
    a = rsd1(lin(Sym("k")), c(10))
    b = rsd1(lin(Sym("cyc")), c(10))
    assert a.union(b) is None


def test_union_two_dims_differ_is_inexact():
    a = RSD("x", ((c(0), c(3), 1), (c(0), c(3), 1)))
    b = RSD("x", ((c(4), c(7), 1), (c(4), c(7), 1)))
    u = a.union(b)
    assert u is not None and not u.exact


def test_contains_symbolic():
    begin, end = lin(Sym("begin")), lin(Sym("end"))
    outer = RSD("a", ((begin, end, 1),))
    inner = RSD("a", ((begin.shift(1), end.shift(-1), 1),))
    assert outer.contains(inner)
    assert not inner.contains(outer)


def test_contains_stride():
    outer = rsd1(c(0), c(20), 2)
    assert outer.contains(rsd1(c(0), c(20), 4))
    assert not outer.contains(rsd1(c(1), c(19), 2))


def test_may_overlap():
    k = Sym("k")
    a = rsd1(lin(k), lin(k))
    b = rsd1(lin(k + 1), lin(k + 5))
    assert not a.may_overlap(b)       # provably disjoint
    c_ = rsd1(lin(k), lin(k + 3))
    assert c_.may_overlap(b)


def test_is_contiguous():
    M, N = 16, 8
    shape = (M, N)
    begin, end = lin(Sym("begin")), lin(Sym("end"))
    full_cols = RSD("a", ((c(0), c(M - 1), 1), (begin, end, 1)))
    assert full_cols.is_contiguous(shape)
    interior = RSD("a", ((c(1), c(M - 2), 1), (begin, end, 1)))
    assert not interior.is_contiguous(shape)
    strided = RSD("a", ((c(0), c(M - 1), 1), (begin, end, 4)))
    assert not strided.is_contiguous(shape)
    column_piece = RSD("a", ((c(2), c(9), 1), (lin(Sym("j")),
                                               lin(Sym("j")), 1)))
    assert column_piece.is_contiguous(shape)


def test_substitute_sym():
    k = Sym("k")
    r = rsd1(lin(k + 1), lin(k + 5))
    out = r.substitute_sym("k", LinExpr.of({"k": 1}, 1), k + 1)
    assert out.dims[0][0].const == 2
    assert out.dims[0][1].const == 6


def test_linexpr_to_expr_roundtrip():
    i, p = Sym("i"), Sym("p")
    lin_ = linearize(3 * i + 2 * p - 4, set())
    expr = linexpr_to_expr(lin_)
    env = {"i": 5, "p": 7}
    assert eval_int(expr, env) == 3 * 5 + 2 * 7 - 4
