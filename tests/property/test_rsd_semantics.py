"""Property tests: symbolic RSD operations vs concrete enumeration.

Random affine subscripts and loop ranges; the symbolically expanded RSD,
evaluated with concrete bindings, must cover exactly the indices a brute
force enumeration of the loop produces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.rsd import RSD, linexpr_to_expr
from repro.interp.lower import compile_int
from repro.lang.expr import Sym, linearize


def eval_int(expr, env):
    return compile_int(expr)(env)


@st.composite
def affine_case(draw):
    coef = draw(st.integers(1, 3))
    const = draw(st.integers(-3, 8))
    lo = draw(st.integers(0, 5))
    hi = draw(st.integers(lo, lo + 8))
    step = draw(st.integers(1, 3))
    return coef, const, lo, hi, step


def expand_and_evaluate(coef, const, lo, hi, step):
    i = Sym("i")
    sub = coef * i + const
    rsd = RSD.point("a", (linearize(sub, {"i"}),))
    out = rsd.expand("i", linearize(Sym("lo"), set()),
                     linearize(Sym("hi"), set()), step)
    env = {"lo": lo, "hi": hi}
    dlo = eval_int(linexpr_to_expr(out.dims[0][0]), env)
    dhi = eval_int(linexpr_to_expr(out.dims[0][1]), env)
    return set(range(dlo, dhi + 1, out.dims[0][2])), out.exact


@given(affine_case())
@settings(max_examples=200)
def test_expand_matches_bruteforce(case):
    coef, const, lo, hi, step = case
    got, exact = expand_and_evaluate(coef, const, lo, hi, step)
    expected = {coef * i + const for i in range(lo, hi + 1, step)}
    if exact:
        assert got == expected
    else:
        assert expected <= got


@st.composite
def two_ranges(draw):
    base = draw(st.integers(0, 6))
    width = draw(st.integers(0, 8))
    shift_lo = draw(st.integers(-4, 4))
    shift_hi = draw(st.integers(-4, 4))
    return base, width, shift_lo, shift_hi


@given(two_ranges(), st.integers(4, 20))
@settings(max_examples=200)
def test_union_is_superset_and_exactness_honest(case, span):
    """Union must cover both operands; 'exact' must never overclaim
    (checked under a concrete non-degenerate binding)."""
    base, width, shift_lo, shift_hi = case
    lo = linearize(Sym("lo"), set())
    hi = linearize(Sym("hi"), set())
    a = RSD("x", ((lo.shift(base), hi.shift(base + width), 1),))
    b = RSD("x", ((lo.shift(base + shift_lo),
                   hi.shift(base + width + shift_hi), 1),))
    u = a.union(b)
    assert u is not None
    env = {"lo": 10, "hi": 10 + span}

    def concretize(rsd):
        l = eval_int(linexpr_to_expr(rsd.dims[0][0]), env)
        h = eval_int(linexpr_to_expr(rsd.dims[0][1]), env)
        return set(range(l, h + 1, rsd.dims[0][2]))

    sa, sb, su = concretize(a), concretize(b), concretize(u)
    assert sa <= su and sb <= su
    if u.exact and sa and sb:
        # Exactness claims precisely the union (ranges overlap here
        # because the span is comfortably larger than the shifts).
        assert su == sa | sb


@given(two_ranges())
@settings(max_examples=150)
def test_contains_is_sound(case):
    base, width, shift_lo, shift_hi = case
    lo = linearize(Sym("lo"), set())
    hi = linearize(Sym("hi"), set())
    a = RSD("x", ((lo.shift(base), hi.shift(base + width), 1),))
    b = RSD("x", ((lo.shift(base + shift_lo),
                   hi.shift(base + width + shift_hi), 1),))
    env = {"lo": 50, "hi": 90}

    def concretize(rsd):
        l = eval_int(linexpr_to_expr(rsd.dims[0][0]), env)
        h = eval_int(linexpr_to_expr(rsd.dims[0][1]), env)
        return set(range(l, h + 1, rsd.dims[0][2]))

    if a.contains(b):
        assert concretize(b) <= concretize(a)
