"""Oracle test: compiled section bounds against the tree walker they
replaced.

Lowering compiles every ``Validate``/``Push``/``Kernel`` spec list and
every partition ``Local`` into integer functions over ``env``
(:mod:`repro.interp.lower`).  The reference below keeps what that
replaced, bodies unchanged: ``eval_int`` (the tree-walking evaluator),
``SectionSpec.evaluate``, ``Interpreter._sections`` (evaluate, then
``Section.intersect`` with the whole array) and ``Program.bindings_for``.

* random ``Expr`` trees over every operator, with unbound symbols,
  inexact ``/``, zero divisors, unknown operators and array references
  mixed in, evaluate to the same integer or raise the same error;
* all six applications, at every applicable optimisation level, run as
  every processor ``q`` of ``harness.modes.SIZING``: at each ``Kernel``,
  ``Validate`` and ``Push`` the compiled section lists, and every
  ``bindings_for(q', env)``, equal the reference's in the same ``env``.
"""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_apps
from repro.compiler.transform import transform
from repro.errors import InterpError, SectionError
from repro.harness.modes import SIZING, applicable_levels
from repro.interp.interp import Interpreter
from repro.interp.lower import compile_int, compile_sections, lower
from repro.interp.runtime import BaseRuntime, LocalAccessor, _alloc
from repro.lang.expr import Bin, Expr, Num, Ref, Sym, Un, as_expr
from repro.lang.nodes import ArrayDecl, Program, SectionSpec
from repro.memory.section import Section

# ----------------------------------------------------------------------
# The reference: the parent commit's evaluators.
# ----------------------------------------------------------------------


def eval_int(expr: Expr, env: Dict[str, object]) -> int:
    """Evaluate a scalar integer expression (no array references)."""
    expr = as_expr(expr)
    if isinstance(expr, Num):
        return int(expr.value)
    if isinstance(expr, Sym):
        try:
            return int(env[expr.name])
        except KeyError:
            raise InterpError(f"unbound symbol {expr.name!r}") from None
    if isinstance(expr, Un):
        v = eval_int(expr.operand, env)
        if expr.op == "neg":
            return -v
        raise InterpError(f"cannot int-evaluate unary {expr.op!r}")
    if isinstance(expr, Bin):
        a = eval_int(expr.left, env)
        b = eval_int(expr.right, env)
        ops = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "//": lambda: a // b, "%": lambda: a % b,
            "min": lambda: min(a, b), "max": lambda: max(a, b),
            "==": lambda: int(a == b), "!=": lambda: int(a != b),
            "<": lambda: int(a < b), "<=": lambda: int(a <= b),
            ">": lambda: int(a > b), ">=": lambda: int(a >= b),
        }
        if expr.op in ops:
            return ops[expr.op]()
        if expr.op == "/":
            if a % b == 0:
                return a // b
            raise InterpError(f"non-integer division {a}/{b} in bounds")
        raise InterpError(f"cannot int-evaluate binary {expr.op!r}")
    raise InterpError(f"cannot int-evaluate {expr!r}")


def evaluate(spec: SectionSpec, env) -> Section:
    dims = tuple((eval_int(lo, env), eval_int(hi, env), step)
                 for lo, hi, step in spec.dims)
    return Section(spec.array, dims)


def sections(program: Program, specs, env) -> List[Section]:
    """``specs`` evaluated in ``env`` and clipped to their arrays'
    bounds; empty ones are dropped."""
    out = []
    for spec in specs:
        sec = evaluate(spec, env)
        decl = program.array_decl(sec.array)
        sec = sec.intersect(Section.whole(sec.array, decl.shape))
        if sec is not None and not sec.empty:
            out.append(sec)
    return out


def bindings_for(program: Program, pid: int, env) -> Dict[str, object]:
    env_q = dict(env)
    env_q["p"] = pid
    for loc in program.partition_locals:
        try:
            env_q[loc.name] = eval_int(loc.expr, env_q)
        except InterpError:
            pass
    return env_q


def outcome(fn):
    """``fn()``'s value, or what it raises: an ``InterpError`` by its
    message too, anything else by type."""
    try:
        return fn()
    except (InterpError, SectionError) as exc:
        return type(exc), str(exc)
    except Exception as exc:
        return type(exc)


# ----------------------------------------------------------------------
# Random integer expressions.
# ----------------------------------------------------------------------

OPS = ["+", "-", "*", "//", "%", "/", "min", "max",
       "==", "!=", "<", "<=", ">", ">="]
ENV = {"a": 7, "b": -3, "c": 12, "n": 4, "z": 0, "f": 6.0,
       "i8": np.int64(5)}

leaves = st.one_of(
    st.integers(-6, 12).map(Num),
    st.sampled_from([2.0, 3.5]).map(Num),
    st.sampled_from(sorted(ENV)).map(Sym),
    st.just(Sym("unbound")),
    st.just(Ref("arr", (Num(1),))))


def nodes(children):
    return st.one_of(
        st.builds(Bin, st.sampled_from(OPS), children, children),
        st.builds(Bin, st.sampled_from(OPS + ["**", "and"]),
                  children, children),
        st.builds(Un, st.sampled_from(["neg", "neg", "neg", "abs", "sqrt"]),
                  children))


exprs = st.recursive(leaves, nodes, max_leaves=12)


@given(exprs)
@settings(max_examples=600, deadline=None)
def test_compiled_int_matches_the_tree_walker(expr):
    want = outcome(lambda: eval_int(expr, ENV))
    fn = compile_int(expr)
    assert outcome(lambda: fn(ENV)) == want
    assert type(want) is not int or type(fn(ENV)) is int


def test_int_error_cases_by_name():
    a, b = Sym("a"), Sym("b")
    with pytest.raises(InterpError, match="unbound symbol 'b'"):
        compile_int(a + b)({"a": 1})
    with pytest.raises(InterpError, match="non-integer division 7/2 in"):
        compile_int(a / b)({"a": 7, "b": 2})
    assert compile_int(a / b)({"a": 8, "b": 2}) == 4
    with pytest.raises(InterpError, match=r"cannot int-evaluate binary '\^'"):
        compile_int(Bin("^", a, b))({"a": 7, "b": 2})
    with pytest.raises(InterpError, match="cannot int-evaluate unary 'abs'"):
        compile_int(Un("abs", a))({"a": 7})
    # Operands first: their own error wins, as in the tree walk.
    with pytest.raises(InterpError, match="unbound symbol 'b'"):
        compile_int(Bin("^", a, b))({"a": 7})
    with pytest.raises(InterpError, match=r"cannot int-evaluate x\(a\)"):
        compile_int(Ref("x", (a,)))({"a": 7})
    assert compile_int(3)({}) == 3 and compile_int(Num(2.9))({}) == 2


# ----------------------------------------------------------------------
# Section functions on hand-made specs: the normal form.
# ----------------------------------------------------------------------

def tiny_program(*stmts) -> Program:
    return Program("t", [ArrayDecl("u", (10, 6)), ArrayDecl("v", (9,))],
                   list(stmts))


@st.composite
def spec_case(draw):
    lo, hi = Sym("lo"), Sym("hi")
    step = draw(st.integers(1, 4))
    second = draw(st.sampled_from([(0, 5), (lo - 3, hi - 3), (2, 2, 3),
                                   (hi, lo), (-4, 9, 2)]))
    spec = SectionSpec.of("u", (lo + draw(st.integers(-2, 2)),
                                hi * draw(st.integers(1, 2)), step), second)
    owner = draw(st.sampled_from([None, None, Sym("p"), Sym("lo") % 2]))
    env = {"lo": draw(st.integers(-4, 11)), "hi": draw(st.integers(-4, 14)),
           "p": draw(st.integers(0, 1))}
    return spec, owner, env


@given(st.lists(spec_case(), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_clipped_sections_are_in_intersects_normal_form(cases):
    program = tiny_program()
    env = cases[0][2]
    pairs = [(spec, owner) for spec, owner, _ in cases]
    want = [sec for spec, owner in pairs
            if owner is None or eval_int(owner, env) == env["p"]
            for sec in sections(program, [spec], env)]
    fn, = compile_sections(program, [pairs])
    got = fn(env)
    assert got == want
    assert all(type(v) is int for sec in got for d in sec.dims for v in d)


def test_section_function_edge_cases():
    program = tiny_program()
    i = Sym("i")
    wrong_rank = SectionSpec.of("u", (0, 3))
    bad_step = SectionSpec.of("v", (0, 3, 0))
    fine = SectionSpec.of("v", (i, i + 20, 3))
    fn, bad = compile_sections(program, [[(wrong_rank, None), (fine, None)],
                                         [(bad_step, None)]])
    assert fn({"i": 2}) == [Section("v", ((2, 8, 3),))]     # hi snapped
    assert fn({"i": 8}) == [Section("v", ((8, 8, 1),))]     # singleton
    assert fn({"i": 9}) == []
    with pytest.raises(InterpError, match="unbound symbol 'i'"):
        fn({})
    with pytest.raises(SectionError, match="non-positive step"):
        bad({})
    with pytest.raises(InterpError, match="unknown array 'w'"):
        compile_sections(program, [[(SectionSpec.of("w", (0, 1)), None)]])


def test_program_lookups_are_computed_once_and_not_inherited():
    app = all_apps()["jacobi"]
    program = app.program("tiny", 4)
    assert program.partition_locals is program.partition_locals
    assert program.partition_locals
    assert program.array_decl("b") is program.array_decl("b")
    with pytest.raises(InterpError, match="unknown array 'nope' in"):
        program.array_decl("nope")
    lower(program)
    level = applicable_levels(app)["aggr"]
    copy = transform(program, level)
    assert copy.lowered is None and "partition_locals" not in vars(copy) \
        and "_decls" not in vars(copy)


# ----------------------------------------------------------------------
# The six applications, as every processor.
# ----------------------------------------------------------------------

class SoloRuntime(BaseRuntime):
    """Processor ``pid`` of ``nprocs`` on its own: every array local,
    synchronisation and hints do nothing."""

    def __init__(self, program: Program, pid: int, nprocs: int) -> None:
        super().__init__(program, pid=pid, nprocs=nprocs)
        for d in program.shared_arrays():
            self._accessors[d.name] = LocalAccessor(_alloc(d))

    def charge(self, us: float) -> None:
        pass

    def barrier(self) -> None:
        pass


class CheckedInterpreter(Interpreter):
    """Compares what the lowered program hands the interpreter with the
    reference's evaluation of the same statement in the same ``env``."""

    checked = 0

    def _kernel(self, k, reads, writes):
        assert reads(self.env) == [evaluate(s, self.env) for s in k.reads]
        assert writes(self.env) == [evaluate(s, self.env) for s in k.writes]
        self.checked += 1
        super()._kernel(k, reads, writes)

    def _validate(self, v, secs):
        assert secs(self.env) == sections(self.program, v.specs, self.env)
        self.checked += 1
        super()._validate(v, secs)

    def _push(self, reads, writes):
        s = self.current_stmt
        for q in range(self.rt.nprocs):
            env_q = self.program.bindings_for(q, self.env)
            assert env_q == bindings_for(self.program, q, self.env)
            assert type(env_q) is dict
            assert reads(env_q) == sections(self.program, s.reads, env_q)
            assert writes(env_q) == sections(self.program, s.writes, env_q)
        self.checked += 1
        super()._push(reads, writes)


CELLS = [(name, level) for name, app in all_apps().items()
         for level in applicable_levels(app)]


@pytest.mark.parametrize("name,level", CELLS)
def test_every_section_list_of_every_app_matches(name, level):
    app = all_apps()[name]
    nprocs = SIZING["nprocs"]
    hinted = 0
    for q in range(nprocs):
        program = app.program(SIZING["dataset"], nprocs)
        opt = applicable_levels(app)[level]
        if opt is not None:
            program = transform(program, opt)
        interp = CheckedInterpreter(program, SoloRuntime(program, q, nprocs))
        for q2 in range(nprocs):        # before anything is in scope
            assert program.bindings_for(q2, interp.env) == \
                bindings_for(program, q2, interp.env)
        interp.run()
        hinted += interp.checked
    if level != "base" or name in ("fft3d", "is", "gauss", "mgs"):
        assert hinted, "nothing was compared"
