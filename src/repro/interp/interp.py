"""The IR interpreter: scalar semantics, vectorized inner loops.

Execution is SPMD: every simulated processor runs the same program with
its own ``p`` binding.  Array accesses go through the runtime's accessors,
which (in the DSM case) perform page-granularity access detection — the
software equivalent of TreadMarks' hardware faults.

Innermost loops whose body is a sequence of :class:`Assign` statements
with subscripts affine in the loop variable execute as single numpy
operations per statement; page state is checked once per accessed section,
which is exactly page-granularity detection.  Everything else falls back
to scalar interpretation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import InterpError
from repro.lang.expr import Bin, Expr, LinExpr, Num, Ref, Sym, Un, linearize
from repro.lang.nodes import (Acquire, Assign, Barrier, If, Kernel, Local,
                              Loop, ProcCall, Program, PushStmt, Release,
                              Stmt, ValidateStmt, eval_int)
from repro.memory.section import Section

_UNARY = {
    "neg": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
}

_BINARY = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
    "min": np.minimum, "max": np.maximum,
    "==": np.equal, "!=": np.not_equal,
    "<": np.less, "<=": np.less_equal,
    ">": np.greater, ">=": np.greater_equal,
}


class Interpreter:
    """Runs one program on one runtime (one simulated processor)."""

    def __init__(self, program: Program, runtime) -> None:
        self.program = program
        self.rt = runtime
        self.env: Dict[str, object] = dict(program.params)
        self.env["p"] = runtime.pid
        self.env["nprocs"] = runtime.nprocs
        #: Statement currently executing (used by the XHPF runtime to
        #: identify which barrier site it is at).
        self.current_stmt: Optional[Stmt] = None
        #: Wall-clock profiler (``None`` when unobserved): counts
        #: interpreted statements for the throughput report.
        self.prof = getattr(runtime, "prof", None)
        #: (id(Ref), loop var) -> affine access plan, see _ref_plan.
        self._plans: Dict[tuple, Optional[list]] = {}

    # ------------------------------------------------------------------

    def run(self):
        self.exec_block(self.program.body)
        return self.rt

    def exec_block(self, stmts: List[Stmt]) -> None:
        for s in stmts:
            self.exec(s)

    def exec(self, s: Stmt) -> None:
        self.current_stmt = s
        if self.prof is not None:
            self.prof.n_stmts += 1
        if isinstance(s, Assign):
            self._exec_scalar_assign(s)
        elif isinstance(s, Loop):
            self._exec_loop(s)
        elif isinstance(s, Local):
            value = self.eval_scalar(s.expr)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            self.env[s.name] = value
        elif isinstance(s, Barrier):
            if s.label:
                self.rt.phase_marker(s.label)
            self.rt.barrier()
        elif isinstance(s, Acquire):
            self.rt.acquire(int(self.eval_scalar(s.lock)))
        elif isinstance(s, Release):
            self.rt.release(int(self.eval_scalar(s.lock)))
        elif isinstance(s, If):
            if self.eval_scalar(s.cond):
                self.exec_block(s.then)
            else:
                self.exec_block(s.orelse)
        elif isinstance(s, ProcCall):
            self.exec_block(s.body)
        elif isinstance(s, Kernel):
            self._exec_kernel(s)
        elif isinstance(s, ValidateStmt):
            self._exec_validate(s)
        elif isinstance(s, PushStmt):
            self._exec_push(s)
        else:
            raise InterpError(f"cannot execute {type(s).__name__}")

    # ------------------------------------------------------------------
    # Loops: vectorize the innermost all-Assign loop.
    # ------------------------------------------------------------------

    def _exec_loop(self, s: Loop) -> None:
        lo = int(self.eval_scalar(s.lo))
        hi = int(self.eval_scalar(s.hi))
        if lo > hi:
            return
        if all(isinstance(b, Assign) for b in s.body):
            ok = True
            for b in s.body:
                if not self._owner_match(b.owner):
                    continue
                if not self._vector_assign(b, s.var, lo, hi, s.step):
                    ok = False
                    break
            if ok:
                return
        saved = self.env.get(s.var)
        for v in range(lo, hi + 1, s.step):
            self.env[s.var] = v
            self.exec_block(s.body)
        if saved is None:
            self.env.pop(s.var, None)
        else:
            self.env[s.var] = saved

    def _owner_match(self, owner: Optional[Expr]) -> bool:
        if owner is None:
            return True
        return int(self.eval_scalar(owner)) == self.rt.pid

    # ------------------------------------------------------------------
    # Vectorized assignment over one loop variable.
    # ------------------------------------------------------------------

    def _ref_plan(self, ref: Ref, var: str):
        """Per-subscript ``(coef of var, loop-invariant LinExpr)``, or
        ``None`` when ``ref`` is not an ascending affine access in
        ``var`` (scalar fallback).  Resolved once per (ref, var)."""
        key = (id(ref), var)   # the program keeps its Refs alive
        try:
            return self._plans[key]
        except KeyError:
            pass
        plan = []
        for sub in ref.subs:
            lin = linearize(sub, {var})
            coef = lin.coef(var) if lin is not None else -1
            if coef < 0:
                plan = None     # not affine / descending accesses
                break
            plan.append((coef, lin.without(var)))
        self._plans[key] = plan
        return plan

    def _ref_section(self, ref: Ref, var: str, lo: int, hi: int,
                     step: int) -> Optional[Section]:
        """Section touched by ``ref`` as ``var`` spans its range."""
        plan = self._ref_plan(ref, var)
        if plan is None:
            return None
        dims = []
        for coef, invariant in plan:
            base = self._eval_linexpr(invariant)
            if coef == 0:
                dims.append((base, base, 1))
            else:
                dims.append((base + coef * lo, base + coef * hi,
                             coef * step))
        return Section(ref.array, tuple(dims))

    def _eval_linexpr(self, lin: LinExpr) -> int:
        return lin.evaluate(self.env, atom_eval=self._eval_atom)

    def _eval_atom(self, atom: Expr, env) -> object:
        return self.eval_scalar(atom)

    def _vector_assign(self, a: Assign, var: str, lo: int, hi: int,
                       step: int) -> bool:
        """Execute ``a`` for all values of ``var``; False → scalar fallback."""
        lhs_sec = self._ref_section(a.lhs, var, lo, hi, step)
        if lhs_sec is None:
            return False
        n = (hi - lo) // step + 1
        rhs = self._eval_vec(a.rhs, var, lo, hi, step)
        if rhs is None:
            return False
        if isinstance(rhs, np.ndarray) and rhs.ndim > 0:
            rhs = rhs.reshape(self._section_shape(lhs_sec))
        self.rt.accessor(a.lhs.array).write(lhs_sec, rhs)
        self.rt.charge(n * a.cost)
        return True

    @staticmethod
    def _section_shape(section: Section):
        return tuple((hi - lo) // st + 1 for lo, hi, st in section.dims)

    def _eval_vec(self, e: Expr, var: str, lo: int, hi: int, step: int):
        """Evaluate ``e`` to a scalar or a length-n vector; None → bail."""
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Sym):
            if e.name == var:
                return np.arange(lo, hi + 1, step, dtype=np.float64)
            return self.env[e.name]
        if isinstance(e, Un):
            v = self._eval_vec(e.operand, var, lo, hi, step)
            if v is None:
                return None
            return _UNARY[e.op](v)
        if isinstance(e, Bin):
            l = self._eval_vec(e.left, var, lo, hi, step)
            if l is None:
                return None
            r = self._eval_vec(e.right, var, lo, hi, step)
            if r is None:
                return None
            if e.op in ("//", "%"):
                op = np.floor_divide if e.op == "//" else np.mod
                return op(np.asarray(l, dtype=np.int64),
                          np.asarray(r, dtype=np.int64))
            return _BINARY[e.op](l, r)
        if isinstance(e, Ref):
            sec = self._ref_section(e, var, lo, hi, step)
            if sec is not None:
                view = self.rt.accessor(e.array).read(sec)
                return view.reshape(-1) if view.size > 1 else view
            return self._eval_gather(e, var, lo, hi, step)
        return None

    def _eval_gather(self, e: Ref, var: str, lo: int, hi: int, step: int):
        """Indirect read ``a(idx(i))``: gather with fancy indexing."""
        decl = self.program.array_decl(e.array)
        idx = []
        for sub in e.subs:
            v = self._eval_vec(sub, var, lo, hi, step)
            if v is None:
                return None
            idx.append(np.asarray(v, dtype=np.int64))
        whole = self.rt.accessor(e.array).read(
            Section.whole(e.array, decl.shape))
        return whole[tuple(idx)]

    # ------------------------------------------------------------------
    # Scalar evaluation.
    # ------------------------------------------------------------------

    def eval_scalar(self, e: Expr):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Sym):
            try:
                return self.env[e.name]
            except KeyError:
                raise InterpError(f"unbound symbol {e.name!r}") from None
        if isinstance(e, Un):
            v = self.eval_scalar(e.operand)
            if e.op == "neg":
                return -v
            return float(_UNARY[e.op](v))
        if isinstance(e, Bin):
            a = self.eval_scalar(e.left)
            b = self.eval_scalar(e.right)
            if e.op == "//":
                return a // b
            if e.op == "%":
                return a % b
            fn = _BINARY.get(e.op)
            if fn is None:
                raise InterpError(f"unknown operator {e.op!r}")
            out = fn(a, b)
            return out.item() if isinstance(out, np.generic) else out
        if isinstance(e, Ref):
            index = tuple(int(self.eval_scalar(s)) for s in e.subs)
            sec = Section.point(e.array, index)
            view = self.rt.accessor(e.array).read(sec)
            return float(np.asarray(view).reshape(-1)[0])
        raise InterpError(f"cannot evaluate {e!r}")

    # ------------------------------------------------------------------
    # Scalar Assign (point update).
    # ------------------------------------------------------------------

    def _exec_scalar_assign(self, a: Assign) -> None:
        if not self._owner_match(a.owner):
            return
        value = self.eval_scalar(a.rhs)
        index = tuple(int(self.eval_scalar(s)) for s in a.lhs.subs)
        sec = Section.point(a.lhs.array, index)
        self.rt.accessor(a.lhs.array).write(sec, value)
        self.rt.charge(a.cost)

    # ------------------------------------------------------------------
    # Kernels, Validate, Push.
    # ------------------------------------------------------------------

    def _exec_kernel(self, k: Kernel) -> None:
        if not self._owner_match(k.owner):
            return
        views: Dict[str, np.ndarray] = {}
        for i, spec in enumerate(k.reads):
            sec = spec.evaluate(self.env)
            views[f"r{i}"] = self.rt.accessor(spec.array).read(sec)
        for i, spec in enumerate(k.writes):
            sec = spec.evaluate(self.env)
            views[f"w{i}"] = self.rt.accessor(spec.array).write_view(sec)
        k.fn(self.env, views)
        cost = self.eval_scalar(k.cost)
        if cost:
            self.rt.charge(float(cost))

    def _clip(self, section: Section) -> Optional[Section]:
        """Clip a section to its array bounds (RSDs may overhang edges)."""
        decl = self.program.array_decl(section.array)
        whole = Section.whole(section.array, decl.shape)
        inter = section.intersect(whole)
        if inter is None or inter.empty:
            return None
        return inter

    def _exec_validate(self, v: ValidateStmt) -> None:
        if not self._owner_match(v.owner):
            return
        sections = []
        for spec in v.specs:
            sec = self._clip(spec.evaluate(self.env))
            if sec is not None:
                sections.append(sec)
        if sections:
            self.rt.validate(sections, v.access, v.w_sync, v.asynchronous,
                             merge_page_limit=v.merge_page_limit)

    def _exec_push(self, s: PushStmt) -> None:
        reads: List[List[Section]] = []
        writes: List[List[Section]] = []
        for q in range(self.rt.nprocs):
            env_q = self.program.bindings_for(q, self.env)
            reads.append([sec for sec in
                          (self._clip(sp.evaluate(env_q)) for sp in s.reads)
                          if sec is not None])
            writes.append([sec for sec in
                           (self._clip(sp.evaluate(env_q))
                            for sp in s.writes)
                           if sec is not None])
        self.rt.push(reads, writes, asynchronous=s.asynchronous)
