"""Unit + property tests for symbolic expressions and linearization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.lower import compile_int
from repro.lang.expr import (Bin, LinExpr, Num, Ref, Sym, Un, as_expr,
                             linearize, substitute_expr, substitute_lin)


def eval_int(expr, env):
    return compile_int(expr)(env)


def test_operator_overloading_builds_trees():
    i = Sym("i")
    e = 2 * i + 1
    assert isinstance(e, Bin) and e.op == "+"
    assert e.free_syms() == {"i"}


def test_linearize_affine():
    i, j = Sym("i"), Sym("j")
    lin = linearize(2 * i + 3 * j - 5, {"i", "j"})
    assert lin.coef("i") == 2
    assert lin.coef("j") == 3
    assert lin.const == -5


def test_linearize_constant_fold():
    lin = linearize(as_expr(7), set())
    assert lin.is_const and lin.const == 7


def test_linearize_opaque_without_loop_vars():
    p, n = Sym("p"), Sym("n")
    lin = linearize(p % n, set())
    assert len(lin.terms) == 1
    atom, coef = lin.terms[0]
    assert coef == 1 and not isinstance(atom, str)


def test_linearize_fails_for_trapped_loop_var():
    i = Sym("i")
    assert linearize(i % 4, {"i"}) is None
    assert linearize(i * i, {"i"}) is None
    assert linearize(Ref("key", (i,)), {"i"}) is None


def test_linearize_mixed_scale():
    i = Sym("i")
    p = Sym("p")
    lin = linearize(3 * (i + p), {"i"})
    assert lin.coef("i") == 3
    assert lin.coef("p") == 3


def test_diff_const():
    i = Sym("i")
    a = linearize(i + 3, {"i"})
    b = linearize(i - 2, {"i"})
    assert a.diff_const(b) == 5
    c = linearize(2 * i, {"i"})
    assert a.diff_const(c) is None


def test_substitute_linexpr():
    lin = LinExpr.of({"k": 2}, 1)
    out = lin.substitute("k", LinExpr.of({"k": 1}, 1))   # k -> k+1
    assert out.coef("k") == 2 and out.const == 3


def test_substitute_expr_inside_opaque():
    k, p, n = Sym("k"), Sym("p"), Sym("n")
    atom = (p - k) % n
    lin = LinExpr.atom(atom)
    out = substitute_lin(lin, "k", LinExpr.of({"k": 1}, 1), k + 1)
    new_atom = out.terms[0][0]
    assert eval_int(new_atom, {"p": 3, "k": 1, "n": 4}) == \
        eval_int(atom, {"p": 3, "k": 2, "n": 4})


def test_substitute_expr_in_ref():
    k = Sym("k")
    e = Ref("a", (k, k + 1))
    out = substitute_expr(e, "k", k + 2)
    assert eval_int(out.subs[0], {"k": 1}) == 3


def test_eval_int_full_operator_set():
    env = {"a": 7, "b": 3}
    a, b = Sym("a"), Sym("b")
    assert eval_int(a + b, env) == 10
    assert eval_int(a - b, env) == 4
    assert eval_int(a * b, env) == 21
    assert eval_int(a // b, env) == 2
    assert eval_int(a % b, env) == 1
    assert eval_int(Bin("min", a, b), env) == 3
    assert eval_int(Bin("max", a, b), env) == 7
    assert eval_int(-a, env) == -7


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-10, 10))
@settings(max_examples=100)
def test_linexpr_algebra_matches_eval(x, y, c):
    i, j = Sym("i"), Sym("j")
    expr = 3 * i - 2 * j + c
    lin = linearize(expr, {"i", "j"})
    env = {"i": x, "j": y}
    assert lin.evaluate(env) == eval_int(expr, env)


@given(st.integers(0, 20), st.integers(1, 5))
@settings(max_examples=60)
def test_substitution_commutes_with_evaluation(kval, step):
    k, p = Sym("k"), Sym("p")
    lin = linearize(2 * k + p, {"k", "p"})
    shifted = substitute_lin(lin, "k", LinExpr.of({"k": 1}, step), k + step)
    env = {"k": kval, "p": 3}
    env2 = {"k": kval + step, "p": 3}
    assert shifted.evaluate(env) == lin.evaluate(env2)
