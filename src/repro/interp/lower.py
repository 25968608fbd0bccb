"""Lowering: a program compiled once into one flat Python function.

``lower(program)`` emits the statement tree as the source of a single
function ``run(I)`` and compiles it.  Every simulated processor of a run
executes that one function; its interpreter ``I`` (``env``, accessors,
the runtime whose ``charge`` advances the clock) is the only
per-processor binding.  Statement kinds, each reference's affine plan,
operator chains, costs and which loops run as whole-section numpy
operations are all decided here (docs/simulator.md, "Lowering").

Section bounds are compiled into the same source: one function per
``Kernel``/``Validate``/``Push`` spec list (``env`` -> sections, the
hinted ones clipped to the declared shape) and ``rebind``, which
re-derives the partition ``Local`` values as another processor would.

A loop is *vectorisable* when its body is a sequence of ``Assign`` whose
stores are ascending affine accesses in the loop variable: decided for
the whole body, before anything executes.  A descending or indirect
*read* is gathered; any other loop runs point by point.  Accessors are
told a section by its dims, the key of the layout's shared access plan.
Emitted code keeps the order of accesses, ``charge`` calls and numpy
operations of a statement-by-statement walk of the tree, so every
simulated number is what that walk produces.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InterpError
from repro.lang.expr import (Bin, Expr, LinExpr, Num, Ref, Sym, Un, as_expr,
                             linearize)
from repro.lang.nodes import (Acquire, Assign, Barrier, If, Kernel, Local,
                              Loop, ProcCall, Program, PushStmt, Release,
                              Stmt, ValidateStmt)
from repro.memory.section import Section, ap_intersect

_UNARY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp,
          "log": np.log, "sin": np.sin, "cos": np.cos}

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.true_divide, "min": np.minimum, "max": np.maximum,
           "==": np.equal, "!=": np.not_equal, "<": np.less,
           "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
           "//": np.floor_divide, "%": np.mod}


def _item(out):
    return out.item() if isinstance(out, np.generic) else out


def _gather(acc, whole, idx):
    """Indirect read ``a(idx(i))``: whole array, read after ``idx``."""
    return acc.read_at(whole)[idx]


def _exact_div(a: int, b: int) -> int:
    if a % b == 0:
        return a // b
    raise InterpError(f"non-integer division {a}/{b} in bounds")


def _refuse(what: str, *operands) -> int:
    """An expression with no integer value.  Its operands are arguments,
    so their own errors come first, as when walking the tree."""
    raise InterpError(f"cannot int-evaluate {what}")


#: What emitted code may name besides its own constants and locals.
_GLOBALS = {fn.__name__: fn for fn in (*_UNARY.values(), *_BINARY.values())}
_GLOBALS.update(_item=_item, _gather=_gather, _arange=np.arange,
                _asarray=np.asarray, _f8=np.float64, _i8=np.int64,
                _exact_div=_exact_div, _refuse=_refuse, Section=Section,
                ap_intersect=ap_intersect, InterpError=InterpError)

_TAB = "    "

#: How an integer function's ``try`` ends: a symbol ``env`` does not
#: bind is an :class:`InterpError`, whatever mapping ``env`` is.
_UNBOUND = ("except KeyError as e:",
            _TAB + 'raise InterpError(f"unbound symbol {e.args[0]!r}") '
                   "from None")


class _Source:
    """Functions generated into one source text and compiled together:
    the ``def f(env)`` definitions, the namespace they run in, and
    fresh names."""

    def __init__(self, name: str, arrays=()) -> None:
        self._filename = f"<lowered {name}>"
        self._shapes = {d.name: d.shape for d in arrays}
        self._ns: Dict[str, object] = dict(_GLOBALS)
        self._names = 0
        self._defs: Dict[str, str] = {}     # body text -> function name

    def _name(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def _shape(self, array: str) -> Tuple[int, ...]:
        if array not in self._shapes:
            raise InterpError(f"unknown array {array!r}")
        return self._shapes[array]

    def _def(self, body: List[str]) -> str:
        """Define ``f(env)`` with ``body``, once per distinct body; its
        name."""
        text = "\n".join(_TAB + line for line in body or ["pass"])
        return self._defs.setdefault(text, self._name("f"))

    def _compile(self, lines: List[str], names: List[str]) -> list:
        """Compile the definitions and ``lines``; the functions
        ``names``, taken out of the namespace (a function that its own
        globals name is a reference cycle)."""
        self.source = "\n".join(
            [f"def {name}(env):\n{text}"
             for text, name in self._defs.items()] + lines)
        exec(compile(self.source, self._filename, "exec"), self._ns)
        fns = [self._ns[name] for name in names]
        for name in set(names):
            del self._ns[name]
        return fns

    # -- integer expressions: section bounds, partition values -------------

    def _int(self, e) -> str:
        """Source of ``e`` as a scalar integer over ``env``: a symbol is
        ``int(env[name])``, ``/`` must divide exactly, an array
        reference or any other operator is refused when evaluated."""
        e = as_expr(e)
        if isinstance(e, Num):
            return f"({int(e.value)})"
        if isinstance(e, Sym):
            return f"int(env[{e.name!r}])"
        if isinstance(e, Un):
            v = self._int(e.operand)
            return f"(-{v})" if e.op == "neg" else \
                f"_refuse({f'unary {e.op!r}'!r}, {v})"
        if isinstance(e, Bin):
            a, b = self._int(e.left), self._int(e.right)
            if e.op in ("+", "-", "*", "//", "%"):
                return f"({a} {e.op} {b})"
            if e.op in ("==", "!=", "<", "<=", ">", ">="):
                return f"int({a} {e.op} {b})"
            if e.op in ("min", "max"):
                return f"{e.op}({a}, {b})"
            if e.op == "/":
                return f"_exact_div({a}, {b})"
            return f"_refuse({f'binary {e.op!r}'!r}, {a}, {b})"
        return f"_refuse({repr(e)!r})"

    def _sections_fn(self, pairs, clip: bool) -> str:
        """Define ``f(env) -> [Section]`` for ``(spec, owner)`` pairs,
        in order; its name.  A spec whose ``owner`` (if any) is not
        ``env['p']`` is skipped.  With ``clip``, sections are cut to
        their arrays' declared bounds (RSDs may overhang edges), in
        ``Section.intersect``'s normal form, and empty ones dropped."""
        body = ["try:", _TAB + "out = []"]

        def emit(*lines: str) -> None:
            body.extend(ind + line for line in lines)

        for spec, owner in pairs:
            shape = self._shape(spec.array)
            ind = _TAB
            if owner is not None:
                emit(f"if {self._int(owner)} == env['p']:")
                ind += _TAB
            for i, (lo, hi, _) in enumerate(spec.dims):
                emit(f"l{i} = {self._int(lo)}", f"h{i} = {self._int(hi)}")
            steps = [step for _, _, step in spec.dims]
            dims, conds = "", []
            # A non-positive step is left for Section to refuse.
            if not clip or min(steps, default=1) <= 0:
                dims = "".join(f"(l{i}, h{i}, {step}), "
                               for i, step in enumerate(steps))
            elif len(shape) != len(steps):
                continue            # intersects nothing
            else:
                for i, (step, n) in enumerate(zip(steps, shape)):
                    if step == 1:
                        emit(f"if l{i} < 0: l{i} = 0",
                             f"if h{i} > {n - 1}: h{i} = {n - 1}")
                        conds.append(f"l{i} <= h{i}")
                        dims += f"(l{i}, h{i}, 1), "
                    else:
                        emit(f"d{i} = ap_intersect(l{i}, h{i}, {step}, "
                             f"0, {n - 1}, 1)")
                        conds.append(f"d{i} is not None")
                        dims += f"d{i}, "
            if conds:
                emit(f"if {' and '.join(conds)}:")
                ind += _TAB
            emit(f"out.append(Section({spec.array!r}, ({dims})))")
        return self._def(body + [_TAB + "return out", *_UNBOUND])


class Lowered(_Source):
    """One program as ``run(I)``.  ``arrays[k]`` is what ``I.accs[k]``
    must access; ``fns`` are the section functions ``run`` hands the
    interpreter; ``rebind(env)`` re-evaluates every partition ``Local``
    in program order.  Holds no processor's state."""

    def __init__(self, program: Program) -> None:
        super().__init__(program.name, program.arrays)
        self.arrays: List[str] = []
        #: Symbol -> local with its int value, per vector statement.
        self._ints: Dict[str, str] = {}
        self._fns: List[str] = []
        # A Local not yet in scope (it depends on later loop variables)
        # keeps the value it has.
        rebind = self._def([
            line for loc in program.partition_locals for line in (
                f"try: env[{loc.name!r}] = {self._int(loc.expr)}",
                "except (InterpError, KeyError): pass")])
        self._lines = ["def run(I):",
                       "    env = I.env; A = I.accs; rt = I.rt",
                       "    charge = rt.charge; pid = rt.pid; prof = I.prof",
                       "    F = I.lowered.fns"]
        self._block(program.body, _TAB)
        self.run, self.rebind, *self.fns = self._compile(
            self._lines, ["run", rebind, *self._fns])

    def _emit(self, ind: str, *lines: str) -> None:
        self._lines.extend(ind + line for line in lines)

    def _const(self, obj) -> str:
        name = self._name("c")
        self._ns[name] = obj
        return name

    def _num(self, v) -> str:
        plain = type(v) in (int, float) and isfinite(v)
        return f"({v!r})" if plain else self._const(v)

    def _sections(self, specs, clip: bool = True) -> str:
        """``F[k]``: the section function of ``specs``, as ``run``
        names it."""
        self._fns.append(self._sections_fn([(s, None) for s in specs], clip))
        return f"F[{len(self._fns) - 1}]"

    def _acc(self, array: str) -> str:
        if array not in self.arrays:
            self._shape(array)
            self.arrays.append(array)
        return f"A[{self.arrays.index(array)}]"

    # -- expressions -------------------------------------------------------

    def _expr(self, e: Expr, loop: Optional[Tuple] = None) -> str:
        """Source that evaluates ``e``: at one point (``loop`` None), or
        for every value of a vectorised loop's variable at once
        (``loop`` = variable, names of its bounds, step)."""
        if isinstance(e, Num):
            return self._num(e.value)
        if isinstance(e, Sym):
            if loop and e.name == loop[0]:
                return "_arange({1}, {2} + 1, {3}, dtype=_f8)".format(*loop)
            return f"env[{e.name!r}]"
        if isinstance(e, (Un, Bin)):
            fn = (_UNARY if isinstance(e, Un) else _BINARY).get(e.op)
            if fn is None:
                raise InterpError(f"unknown operator {e.op!r}")
            fn = fn.__name__
        if isinstance(e, Un):
            v = self._expr(e.operand, loop)
            if loop:
                return f"{fn}({v})"
            return f"(-{v})" if e.op == "neg" else f"float({fn}({v}))"
        if isinstance(e, Bin):
            a, b = self._expr(e.left, loop), self._expr(e.right, loop)
            if e.op not in ("//", "%"):
                return f"{fn}({a}, {b})" if loop else f"_item({fn}({a}, {b}))"
            if loop:
                a, b = f"_asarray({a}, dtype=_i8)", f"_asarray({b}, dtype=_i8)"
                return f"{fn}({a}, {b})"
            return f"({a} {e.op} {b})"
        if isinstance(e, Ref):
            acc = self._acc(e.array)
            if loop is None:
                return (f"float({acc}.read_at({self._point(e.subs)})"
                        f".reshape(-1)[0])")
            dims, coefs = self._dims(e, loop)
            if dims is not None:
                return (f"{acc}.read_at({dims})"
                        + (".reshape(-1)" if any(coefs) else ""))
            whole = tuple((0, n - 1, 1) for n in self._shapes[e.array])
            idx = "".join(f"_asarray({self._expr(s, loop)}, dtype=_i8), "
                          for s in e.subs)
            return f"_gather({acc}, {whole!r}, ({idx}))"
        raise InterpError(f"cannot evaluate {e!r}")

    def _point(self, subs) -> str:
        """Dims of the single element ``subs`` index."""
        out = ""
        for s in subs:
            t = self._name("t")
            out += f"(({t} := int({self._expr(s)})), {t}, 1), "
        return f"({out})"

    def _base(self, lin: LinExpr) -> str:
        """``LinExpr.evaluate`` as source: a symbol is read once per
        statement into a local (``_ints``); an opaque atom, which may
        read arrays, is evaluated in place, point-wise."""
        terms = [repr(lin.const)] if lin.const or not lin.terms else []
        for atom, c in lin.terms:
            if isinstance(atom, str):
                v = self._ints.setdefault(atom, f"s{len(self._ints)}")
            else:
                v = f"int({self._expr(atom)})"
            terms.append(v if c == 1 else f"{c}*{v}")
        return " + ".join(terms)

    def _dims(self, ref: Ref, loop: Tuple):
        """``(dims source, per-subscript coefficient of the loop
        variable)`` of the section ``ref`` touches over the loop, or
        ``(None, None)`` when it is not an ascending affine access."""
        var, lo, hi, step = loop
        out, coefs = "", []
        for sub in ref.subs:
            lin = linearize(sub, {var})
            c = lin.coef(var) if lin is not None else -1
            if c < 0:
                return None, None
            coefs.append(c)
            t, k = self._name("t"), "" if c == 1 else f"{c}*"
            base = f"({t} := {self._base(lin.without(var))})"
            out += f"({base}, {t}, 1), " if c == 0 else \
                f"({k}{lo} + {base}, {k}{hi} + {t}, {c * step}), "
        return f"({out})", coefs

    # -- statements --------------------------------------------------------

    def _block(self, stmts: List[Stmt], ind: str) -> None:
        if not stmts:
            self._emit(ind, "pass")
        for s in stmts:
            emit = self._EMIT.get(type(s))
            if emit is None:
                raise InterpError(f"cannot execute {type(s).__name__}")
            self._emit(ind, f"I.current_stmt = {self._const(s)}",
                       "if prof is not None: prof.n_stmts += 1")
            emit(self, s, ind)

    def _owned(self, owner: Optional[Expr], ind: str) -> str:
        """Guard what follows by ``owner == p``; returns its indent."""
        if owner is None:
            return ind
        self._emit(ind, f"if int({self._expr(owner)}) == pid:")
        return ind + _TAB

    def _assign(self, a: Assign, ind: str) -> None:
        self._emit(self._owned(a.owner, ind),
                   f"v = {self._expr(a.rhs)}",
                   f"{self._acc(a.lhs.array)}.write_at("
                   f"{self._point(a.lhs.subs)}, v)",
                   f"charge({self._num(a.cost)})")

    def _loop(self, s: Loop, ind: str) -> None:
        lo, hi = self._name("lo"), self._name("hi")
        loop = (s.var, lo, hi, s.step)
        self._emit(ind, f"{lo} = int({self._expr(s.lo)})",
                   f"{hi} = int({self._expr(s.hi)})", f"if {lo} <= {hi}:")
        ind += _TAB
        if all(type(b) is Assign and self._dims(b.lhs, loop)[0]
               and (b.owner is None or s.var not in b.owner.free_syms())
               for b in s.body):
            self._emit(ind, f"n = ({hi} - {lo}) // {s.step} + 1")
            for b in s.body:
                self._vector_assign(b, loop, self._owned(b.owner, ind))
            return
        saved = self._name("saved")
        self._emit(ind, f"{saved} = env.get({s.var!r})",
                   f"for env[{s.var!r}] in range({lo}, {hi} + 1, {s.step}):")
        self._block(s.body, ind + _TAB)
        self._emit(ind, f"if {saved} is None: env.pop({s.var!r}, None)",
                   f"else: env[{s.var!r}] = {saved}")

    def _vector_assign(self, a: Assign, loop: Tuple, ind: str) -> None:
        """``a`` for all ``n`` values of the loop variable: the store's
        section first, then the reads in expression order."""
        self._ints.clear()
        dims, coefs = self._dims(a.lhs, loop)
        rhs = self._expr(a.rhs, loop)
        if loop[0] in a.rhs.free_syms():   # one value per iteration
            shape = "".join("n, " if c else "1, " for c in coefs)
            rhs += f".reshape(({shape}))"
        self._emit(ind, *(f"{name} = int(env[{sym!r}])"
                          for sym, name in self._ints.items()),
                   f"d = {dims}",
                   f"{self._acc(a.lhs.array)}.write_at(d, {rhs})",
                   f"charge(n * {self._num(a.cost)})")

    def _local(self, s: Local, ind: str) -> None:
        self._emit(ind, f"v = {self._expr(s.expr)}",
                   "if isinstance(v, float) and v.is_integer(): v = int(v)",
                   f"env[{s.name!r}] = v")

    def _barrier(self, s: Barrier, ind: str) -> None:
        if s.label:
            self._emit(ind, f"rt.phase_marker({s.label!r})")
        self._emit(ind, "rt.barrier()")

    def _lock(self, s, ind: str) -> None:
        self._emit(ind, f"rt.{type(s).__name__.lower()}"
                        f"(int({self._expr(s.lock)}))")

    def _if(self, s: If, ind: str) -> None:
        self._emit(ind, f"if {self._expr(s.cond)}:")
        self._block(s.then, ind + _TAB)
        self._emit(ind, "else:")
        self._block(s.orelse, ind + _TAB)

    def _kernel(self, k: Kernel, ind: str) -> None:
        self._emit(self._owned(k.owner, ind),
                   f"I._kernel(I.current_stmt, {self._sections(k.reads, False)}"
                   f", {self._sections(k.writes, False)})",
                   f"v = {self._expr(k.cost)}", "if v: charge(float(v))")

    _EMIT = {
        Assign: _assign, Loop: _loop, Local: _local, Barrier: _barrier,
        Acquire: _lock, Release: _lock, If: _if, Kernel: _kernel,
        ProcCall: lambda self, s, ind: self._block(s.body, ind),
        ValidateStmt: lambda self, s, ind: self._emit(
            self._owned(s.owner, ind),
            f"I._validate(I.current_stmt, {self._sections(s.specs)})"),
        PushStmt: lambda self, s, ind: self._emit(
            ind, f"I._push({self._sections(s.reads)}, "
                 f"{self._sections(s.writes)})"),
    }


def compile_int(expr) -> Callable[[Dict[str, object]], int]:
    """``f(env)``: the scalar integer expression ``expr`` (no array
    references) as section bounds and partition values evaluate it."""
    src = _Source("int")
    body = [f"try: return {src._int(expr)}", *_UNBOUND]
    return src._compile([], [src._def(body)])[0]


def compile_sections(program: Program, groups) -> list:
    """One ``f(env) -> [Section]`` per group of ``(spec, owner)`` pairs,
    clipped to ``program``'s declared shapes: exchange sets that are
    not statements of the program (the XHPF plan), compiled together."""
    src = _Source(program.name, program.arrays)
    return src._compile([], [src._sections_fn(g, True) for g in groups])


def lower(program: Program) -> Lowered:
    """``program``'s lowered form: built on first use and kept on the
    program, so all processors of a run (and nothing else: every run
    builds its own :class:`Program`) share it."""
    if program.lowered is None:
        program.lowered = Lowered(program)
    return program.lowered
