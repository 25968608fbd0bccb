"""AST statement nodes and programs of the mini-language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InterpError
from repro.lang.expr import Bin, Expr, Num, Ref, Sym, Un, as_expr
from repro.memory.section import Section
from repro.rt.access import AccessType


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


@dataclass(frozen=True)
class SectionSpec:
    """A symbolic regular section: bounds are expressions, steps ints."""

    array: str
    dims: Tuple[Tuple[Expr, Expr, int], ...]

    @classmethod
    def of(cls, array: str, *dims) -> "SectionSpec":
        norm = []
        for d in dims:
            if len(d) == 2:
                lo, hi = d
                step = 1
            else:
                lo, hi, step = d
            norm.append((as_expr(lo), as_expr(hi), int(step)))
        return cls(array, tuple(norm))

    def evaluate(self, env: Dict[str, object]) -> Section:
        dims = tuple((eval_int(lo, env), eval_int(hi, env), step)
                     for lo, hi, step in self.dims)
        return Section(self.array, dims)

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{lo!r}:{hi!r}" + (f":{step}" if step != 1 else "")
            for lo, hi, step in self.dims)
        return f"{self.array}[{dims}]"


class Stmt:
    """Base class for statements."""


@dataclass
class Assign(Stmt):
    """Element-wise assignment inside (possibly nested) loops."""

    lhs: Ref
    rhs: Expr
    #: Simulated CPU cost per element update, microseconds.
    cost: float = 0.05
    #: When set, only the processor for which ``owner == p`` executes this.
    owner: Optional[Expr] = None


@dataclass
class Loop(Stmt):
    """Fortran-style ``do var = lo, hi, step`` (inclusive bounds)."""

    var: str
    lo: Expr
    hi: Expr
    body: List[Stmt]
    step: int = 1


@dataclass
class Barrier(Stmt):
    label: Optional[str] = None


@dataclass
class Acquire(Stmt):
    lock: Expr


@dataclass
class Release(Stmt):
    lock: Expr


@dataclass
class Local(Stmt):
    """Private scalar assignment.

    ``partition=True`` marks work-partitioning values (functions of the
    processor id, the parameters, and enclosing loop variables) that the
    run-time may re-evaluate for *other* processors when computing Push
    and XHPF exchange sets.
    """

    name: str
    expr: Expr
    partition: bool = False


@dataclass
class Kernel(Stmt):
    """Opaque local computation with declared section summaries.

    Stands in for loop nests whose bodies the paper's compiler summarizes
    (local FFTs, pivot search).  ``fn(env, views)`` receives numpy views
    of the declared sections, keyed ``"r0", "r1", ..., "w0", ...``.
    ``indirect=True`` marks kernels containing indirect array accesses —
    they defeat the data-parallel (XHPF) lowering, as IS defeated XHPF.
    """

    name: str
    reads: List[SectionSpec]
    writes: List[SectionSpec]
    fn: Callable[[Dict[str, object], Dict[str, np.ndarray]], None]
    cost: Expr = field(default_factory=lambda: Num(0))
    owner: Optional[Expr] = None
    indirect: bool = False


@dataclass
class If(Stmt):
    cond: Expr
    then: List[Stmt]
    orelse: List[Stmt] = field(default_factory=list)


@dataclass
class ProcCall(Stmt):
    """A named procedure invocation, inlined at run time.

    Without interprocedural analysis a call boundary is a fetch point:
    regions cannot extend across it (this is what blocks sync+data merge
    and Push for Shallow in the paper).
    """

    name: str
    body: List[Stmt]


@dataclass
class ValidateStmt(Stmt):
    """Compiler-inserted call into the augmented run-time."""

    specs: List[SectionSpec]
    access: AccessType
    w_sync: bool = False
    asynchronous: bool = False
    owner: Optional[Expr] = None


@dataclass
class PushStmt(Stmt):
    """Compiler-inserted barrier replacement.

    ``reads[...]``/``writes[...]`` are evaluated per processor at run
    time (the paper's "in terms of processor identifiers").
    """

    reads: List[SectionSpec]
    writes: List[SectionSpec]
    label: Optional[str] = None


@dataclass
class ArrayDecl:
    name: str
    shape: Tuple[int, ...]
    dtype: object = np.float64
    shared: bool = True


@dataclass
class Program:
    """A complete explicitly parallel program."""

    name: str
    arrays: List[ArrayDecl]
    body: List[Stmt]
    #: Parameter values (problem sizes etc.), bound into every env.
    params: Dict[str, int] = field(default_factory=dict)
    #: The executable form, built by :func:`repro.interp.lower.lower` on
    #: first use; not carried over to a transformed copy.
    lowered: object = field(default=None, init=False, repr=False,
                            compare=False)

    def shared_arrays(self) -> List[ArrayDecl]:
        return [a for a in self.arrays if a.shared]

    def private_arrays(self) -> List[ArrayDecl]:
        return [a for a in self.arrays if not a.shared]

    def array_decl(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise InterpError(f"unknown array {name!r} in {self.name}")

    def partition_locals(self) -> List[Local]:
        """All partition-tagged Locals, in program order."""
        out: List[Local] = []

        def walk(stmts: Sequence[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, Local) and s.partition:
                    out.append(s)
                elif isinstance(s, Loop):
                    walk(s.body)
                elif isinstance(s, If):
                    walk(s.then)
                    walk(s.orelse)
                elif isinstance(s, ProcCall):
                    walk(s.body)

        walk(self.body)
        return out

    def bindings_for(self, pid: int, env: Dict[str, object]
                     ) -> Dict[str, object]:
        """Re-derive partition variables as processor ``pid`` would.

        Used by Push and the XHPF lowering to evaluate another
        processor's sections: copy the current environment, rebind ``p``
        and re-evaluate every partition Local in order.
        """
        env_q = dict(env)
        env_q["p"] = pid
        for loc in self.partition_locals():
            try:
                env_q[loc.name] = eval_int(loc.expr, env_q)
            except InterpError:
                pass   # not in scope yet (depends on later loop vars)
        return env_q
