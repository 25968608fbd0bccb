"""AST statement nodes and programs of the mini-language."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InterpError
from repro.lang.expr import Expr, Num, Ref, as_expr
from repro.rt.access import AccessType


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
    #: first use; like the two cached properties below, not carried
    #: over to a transformed copy (nothing changes a built Program).
    lowered: object = field(default=None, init=False, repr=False,
                            compare=False)

    def shared_arrays(self) -> List[ArrayDecl]:
        return [a for a in self.arrays if a.shared]

    def private_arrays(self) -> List[ArrayDecl]:
        return [a for a in self.arrays if not a.shared]

    @cached_property
    def _decls(self) -> Dict[str, ArrayDecl]:
        return {a.name: a for a in reversed(self.arrays)}

    def array_decl(self, name: str) -> ArrayDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise InterpError(
                f"unknown array {name!r} in {self.name}") from None

    @cached_property
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
        and re-evaluate every partition Local in order (the lowered
        program's ``rebind``; one not yet in scope keeps its value).
        """
        from repro.interp.lower import lower    # interp imports lang
        env_q = dict(env)
        env_q["p"] = pid
        lower(self).rebind(env_q)
        return env_q
