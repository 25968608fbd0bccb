"""Source-to-source transformation (paper Section 4.2).

Walks the program, and at every fetch point inserts calls to the
augmented run-time according to the analysis summaries and the enabled
optimization levels:

* ``aggregation`` — plain consistency-preserving Validates (READ / WRITE
  / READ&WRITE): bypass faults, aggregate communication;
* ``consistency_elimination`` — upgrade exact, contiguous write sections
  to WRITE_ALL / READ&WRITE_ALL, disabling twins and diffs;
* ``sync_data_merge`` — move fetching Validates in front of the next
  synchronization as ``Validate_w_sync``;
* ``push`` — replace barriers satisfying the Section 4.2 conditions with
  point-to-point ``Push`` exchanges;
* ``asynchronous`` — issue Validates asynchronously (complete at the
  first fault), Section 3.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Set

from repro.errors import CompileError
from repro.lang.expr import Expr
from repro.lang.nodes import (Acquire, Barrier, If, Local, Loop, ProcCall,
                              Program, PushStmt, Release, SectionSpec, Stmt,
                              ValidateStmt)
from repro.rt.access import AccessType
from repro.compiler.analysis import (AccessSummary, AnalysisResult,
                                     RegionInfo, analyze_program)
from repro.compiler.rsd import RSD, linexpr_to_expr


@dataclass(frozen=True)
class OptConfig:
    """Which of the paper's optimizations the transformation applies."""

    aggregation: bool = True
    consistency_elimination: bool = True
    sync_data_merge: bool = False
    push: bool = False
    asynchronous: bool = True
    name: str = "opt"


def rsd_to_spec(rsd: RSD) -> SectionSpec:
    dims = tuple((linexpr_to_expr(lo), linexpr_to_expr(hi), step)
                 for lo, hi, step in rsd.dims)
    return SectionSpec(rsd.array, dims)


def _rsd_symbols(rsd: RSD) -> Set[str]:
    syms: Set[str] = set()
    for lo, hi, _ in rsd.dims:
        for lin in (lo, hi):
            for atom in lin.atoms():
                if isinstance(atom, str):
                    syms.add(atom)
                else:
                    syms.update(atom.free_syms())
    return syms


class _Transformer:
    def __init__(self, program: Program, opt: OptConfig,
                 analysis: Optional[AnalysisResult] = None) -> None:
        self.program = program
        self.opt = opt
        self.analysis = analysis or analyze_program(program)
        self.shapes = {a.name: a.shape for a in program.shared_arrays()}
        self._push_symbols = self._allowed_push_symbols()

    # ------------------------------------------------------------------

    def _allowed_push_symbols(self) -> Set[str]:
        allowed = {"p", "nprocs"}
        allowed.update(self.program.params)
        allowed.update(loc.name for loc in self.program.partition_locals)
        return allowed

    def run(self) -> Program:
        body = self._block(self.program.body, loop_vars=[])
        return Program(self.program.name, list(self.program.arrays), body,
                       dict(self.program.params))

    # ------------------------------------------------------------------

    def _block(self, stmts: List[Stmt], loop_vars: List[str]) -> List[Stmt]:
        out: List[Stmt] = []
        for s in stmts:
            out.extend(self._stmt(s, loop_vars))
        return out

    def _stmt(self, s: Stmt, loop_vars: List[str]) -> List[Stmt]:
        if isinstance(s, Loop):
            new = Loop(s.var, s.lo, s.hi,
                       self._block(s.body, loop_vars + [s.var]), step=s.step)
            return [new]
        if isinstance(s, If):
            return [If(s.cond, self._block(s.then, loop_vars),
                       self._block(s.orelse, loop_vars))]
        if isinstance(s, ProcCall):
            region = self.analysis.region_of(s)
            validates = self._validates_for(region, at_sync=False)
            return [ProcCall(s.name,
                             validates + self._block(s.body, loop_vars))]
        if isinstance(s, Barrier):
            return self._sync_site(s, loop_vars)
        if isinstance(s, (Acquire, Release)):
            return self._sync_site(s, loop_vars)
        return [s]

    # ------------------------------------------------------------------

    def _sync_site(self, s: Stmt, loop_vars: List[str]) -> List[Stmt]:
        region = self.analysis.region_of(s)
        if (self.opt.push and isinstance(s, Barrier)
                and self._pushable(s, region, loop_vars)):
            return self._emit_push(s, region)
        before: List[Stmt] = []
        after = self._validates_for(region, at_sync=True)
        if self.opt.sync_data_merge:
            merged: List[Stmt] = []
            rest: List[Stmt] = []
            for v in after:
                if v.access.fetches and isinstance(s, (Barrier, Acquire)):
                    merged.append(dc_replace(
                        v, w_sync=True, asynchronous=False))
                else:
                    rest.append(v)
            before, after = merged, rest
        return before + [s] + after

    # ------------------------------------------------------------------
    # Validate emission.
    # ------------------------------------------------------------------

    def _validates_for(self, region: RegionInfo, at_sync: bool,
                       writes_only: bool = False) -> List[ValidateStmt]:
        if not self.opt.aggregation:
            return []
        groups: Dict[tuple, List[SectionSpec]] = {}
        owners: Dict[tuple, Optional[Expr]] = {}

        def emit(access: AccessType, owner, rsd) -> None:
            key = (access.value, repr(owner))
            groups.setdefault(key, []).append(rsd_to_spec(rsd))
            owners[key] = owner

        for summ in region.summary_list():
            if summ.unknown:
                continue   # partial analysis: skip only this array
            if writes_only and not summ.write:
                continue
            for w in summ.write_parts:
                emit(self._write_access_type(summ, w), summ.owner, w)
            if writes_only:
                continue
            for r in summ.read_parts:
                # Reads also satisfied by a write-part Validate (which
                # fetches too, except under WRITE_ALL) are skipped.
                if any(w.exact and w.contains(r)
                       and self._write_access_type(summ, w).fetches
                       for w in summ.write_parts):
                    continue
                emit(AccessType.READ, summ.owner, r)
        out: List[ValidateStmt] = []
        for key in sorted(groups):
            access = AccessType(key[0])
            asynchronous = (self.opt.asynchronous and access.fetches)
            out.append(ValidateStmt(specs=groups[key], access=access,
                                    w_sync=False,
                                    asynchronous=asynchronous,
                                    owner=owners[key]))
        return out

    def _write_access_type(self, summ: AccessSummary,
                           w) -> AccessType:
        """Figure-3 access type for one write part (Section 4.2 rules)."""
        overlapping = [r for r in summ.read_parts if r.may_overlap(w)]
        base = (AccessType.READ_WRITE if overlapping
                else AccessType.WRITE)
        if not self.opt.consistency_elimination:
            return base
        if not w.exact:
            return base
        shape = self.shapes.get(summ.array)
        if shape is None or not w.is_contiguous(shape):
            return base
        if not overlapping:
            # Nothing is read before these writes: WRITE_ALL.
            return AccessType.WRITE_ALL
        if all(w.contains(r) for r in overlapping):
            # Entire section written, parts read first: READ&WRITE_ALL.
            return AccessType.READ_WRITE_ALL
        return base

    # ------------------------------------------------------------------
    # Push (Section 4.2's barrier-replacement rule).
    # ------------------------------------------------------------------

    def _pushable(self, s: Barrier, region: RegionInfo,
                  loop_vars: List[str]) -> bool:
        precs = self.analysis.prec.get(id(s), [])
        if not precs or any(p is None or not isinstance(p, Barrier)
                            for p in precs):
            return False
        if len(precs) > 1:
            # Several preceding barriers are fine when every predecessor
            # region writes exactly the same sections (e.g. the first
            # iteration entering through B0 and the steady state through
            # the loop back edge write the same slab).
            fingerprints = {
                repr([(summ.array, summ.write_parts)
                      for summ in self.analysis.region_of(p).summary_list()
                      if summ.write])
                for p in precs}
            if len(fingerprints) != 1:
                return False
        succs = region.succ_fetches
        if not succs or not all(isinstance(f, Barrier) for f in succs):
            return False
        # Regions that can run off the end of the program are fine: the
        # run-time executes an implicit exit barrier (Tmk_exit) which
        # restores full consistency after the last Push.
        prev_region = self.analysis.region_of(precs[0])
        prev_writes = [summ for summ in prev_region.summary_list()
                       if summ.write]
        if not prev_writes:
            return False
        allowed = self._push_symbols | set(loop_vars)
        for summ in prev_writes:
            if summ.unknown or summ.owner is not None:
                return False
            for w in summ.write_parts:
                if not w.exact or not _rsd_symbols(w) <= allowed:
                    return False
        for summ in region.summary_list():
            if not summ.read:
                continue
            if summ.unknown or summ.owner is not None:
                return False
            for r in summ.read_parts:
                if not _rsd_symbols(r) <= allowed:
                    return False
        return True

    def _emit_push(self, s: Barrier, region: RegionInfo) -> List[Stmt]:
        prev_region = self.analysis.region_of(
            self.analysis.prec[id(s)][0])
        writes = [rsd_to_spec(w)
                  for summ in prev_region.summary_list()
                  for w in summ.write_parts]
        reads = [rsd_to_spec(r)
                 for summ in region.summary_list()
                 for r in summ.read_parts]
        push = PushStmt(reads=reads, writes=writes, label=s.label)
        # The region's own writes still benefit from WRITE_ALL validates.
        return [push] + self._validates_for(region, at_sync=True,
                                            writes_only=True)


def transform(program: Program, opt: OptConfig,
              analysis: Optional[AnalysisResult] = None) -> Program:
    """Insert augmented-run-time calls per ``opt``; returns a new Program."""
    if opt is None:
        raise CompileError("transform() requires an OptConfig")
    out = _Transformer(program, opt, analysis).run()
    if _HINT_MUTATOR is not None:
        out = map_hints(out, _HINT_MUTATOR)
    return out


# ----------------------------------------------------------------------
# Hint-site enumeration and the sanitizer's fault-injection hook.
#
# ``map_hints`` walks a transformed program in deterministic pre-order,
# numbering every ValidateStmt / PushStmt it meets, and lets a callback
# replace (or drop, by returning None) each one.  The module-level
# mutator — installed via the ``hint_mutation`` context manager — is
# applied by ``transform()`` itself, so a harness run that compiles the
# program internally (RunSpec and friends) picks the mutation up
# without new plumbing.  Both sides of the sanitizer's soundness proof
# use the same walk, so site numbers agree between corpus enumeration
# and injection.
# ----------------------------------------------------------------------

_HINT_MUTATOR = None


def map_hints(program: Program, fn) -> Program:
    """Rebuild ``program`` with ``fn(site_index, stmt)`` applied to every
    hint statement (``ValidateStmt`` / ``PushStmt``); ``fn`` returning
    ``None`` drops the statement, returning the statement unchanged
    keeps it."""
    counter = [0]

    def walk(stmts):
        out = []
        for s in stmts:
            if isinstance(s, (ValidateStmt, PushStmt)):
                site = counter[0]
                counter[0] += 1
                s = fn(site, s)
                if s is not None:
                    out.append(s)
            elif isinstance(s, Loop):
                out.append(dc_replace(s, body=walk(s.body)))
            elif isinstance(s, If):
                out.append(dc_replace(s, then=walk(s.then),
                                      orelse=walk(s.orelse)))
            elif isinstance(s, ProcCall):
                out.append(dc_replace(s, body=walk(s.body)))
            else:
                out.append(s)
        return out

    return dc_replace(program, body=walk(program.body))


def hint_sites(program: Program) -> List[Stmt]:
    """The hint statements of ``program`` in ``map_hints`` site order."""
    sites: List[Stmt] = []

    def collect(site, stmt):
        assert site == len(sites)
        sites.append(stmt)
        return stmt

    map_hints(program, collect)
    return sites


def set_hint_mutator(fn) -> None:
    """Install (or clear, with ``None``) the post-transform hint hook."""
    global _HINT_MUTATOR
    _HINT_MUTATOR = fn


class hint_mutation:
    """Context manager installing a hint mutator for the duration::

        with hint_mutation(lambda site, stmt: ...):
            run(RunSpec(...))
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def __enter__(self):
        set_hint_mutator(self.fn)
        return self

    def __exit__(self, *exc) -> None:
        set_hint_mutator(None)
