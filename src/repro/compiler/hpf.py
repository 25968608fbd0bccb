"""XHPF stand-in: data-parallel lowering to message passing.

The paper compares against APR's Forge XHPF, a commercial compiler that
turns data-parallel Fortran into message passing.  We reproduce its two
defining properties:

* for programs whose shared accesses it can analyze precisely, it
  produces owner-computes message passing with performance close to
  hand-coded PVMe;
* it **refuses** programs with indirect accesses to the main arrays —
  exactly why IS has no XHPF bar in Figures 5/6 — and (being
  data-parallel) anything synchronized with locks.

Lowering strategy: arrays are replicated per processor, every barrier is
replaced by compiler-scheduled exchanges.  Because the schedule is
derived statically (from the same regular-section analysis the DSM
optimizer uses, but with barriers as the only region delimiters), both
sender and receiver can compute the exchange deterministically — no
run-time coordination messages are needed, and receives are posted (no
interrupts), as in the paper's XHPF configuration.

The exchange bookkeeping handles the write-at-barrier-k, read-at-
barrier-k+j case: each processor mirrors, deterministically, what every
other processor has written (by evaluating the per-processor write
sections of each region) and what has already been shipped where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HpfError
from repro.interp.interp import Interpreter
from repro.interp.lower import compile_sections
from repro.interp.runtime import BaseRuntime, LocalAccessor, _alloc
from repro.lang.nodes import Barrier, Program
from repro.memory.section import Section
from repro.compiler.analysis import analyze_program
from repro.compiler.transform import rsd_to_spec


@dataclass
class _RegionSpec:
    """Per-region exchange sets, compiled with the plan: ``env`` -> the
    sections (clipped to the arrays, non-empty) that processor
    ``env['p']`` writes / reads in the region."""

    writes: Callable[[Dict[str, object]], List[Section]]
    reads: Callable[[Dict[str, object]], List[Section]]


@dataclass
class XhpfPlan:
    """The compiled exchange schedule."""

    program: Program
    entry: _RegionSpec
    by_barrier: Dict[int, _RegionSpec]


def compile_xhpf(program: Program) -> XhpfPlan:
    """Build the exchange schedule, or raise :class:`HpfError`."""
    analysis = analyze_program(program, barriers_only=True)
    if analysis.has_locks:
        raise HpfError(f"{program.name}: lock-based synchronization is "
                       "not data-parallel")
    if analysis.has_indirect:
        raise HpfError(f"{program.name}: indirect access to a shared "
                       "array defeats the analysis")

    def exchange_sets(info):
        """``info``'s symbolic (spec, owner) pairs: writes, then reads."""
        writes, reads = [], []
        for summ in info.summary_list():
            if summ.unknown:
                raise HpfError(
                    f"{program.name}: unanalyzable access to "
                    f"{summ.array}")
            writes += [(rsd_to_spec(w), summ.owner) for w in summ.write_parts]
            reads += [(rsd_to_spec(r), summ.owner) for r in summ.read_parts]
        return writes, reads

    infos = [info for info in analysis.regions.values()
             if isinstance(info.fetch, Barrier)] + [analysis.entry_region]
    fns = compile_sections(
        program, [group for info in infos for group in exchange_sets(info)])
    *regions, entry = [_RegionSpec(*fns[i:i + 2])
                       for i in range(0, len(fns), 2)]
    return XhpfPlan(program=program, entry=entry, by_barrier={
        id(info.fetch): region for info, region in zip(infos, regions)})


class XhpfRuntime(BaseRuntime):
    """Replicated arrays + compiler-scheduled exchanges at barriers."""

    def __init__(self, comm, program: Program, plan: XhpfPlan) -> None:
        super().__init__(program, pid=comm.pid, nprocs=comm.nprocs)
        self.comm = comm
        self.plan = plan
        #: Wall-clock profiler (``None`` when unobserved); the
        #: interpreter picks it up for its statements/sec counter.
        self.prof = comm.ep.net.profiler
        for d in program.shared_arrays():
            self._accessors[d.name] = LocalAccessor(_alloc(d))
        #: Deterministically mirrored write log: per writer, entries of
        #: (array, section, version); identical on every processor.
        self._written: List[Dict[Tuple, int]] = [
            {} for _ in range(self.nprocs)]
        #: (reader, writer, array, section, version) already shipped.
        self._shipped: Dict[Tuple, int] = {}
        #: Evaluated (writer, section) pairs of the region currently
        #: executing.  Sections must be evaluated when the region STARTS
        #: (loop variables advance before the next barrier registers
        #: them), so each barrier evaluates the upcoming region's writes
        #: eagerly and registers them at the following barrier.
        self._pending_writes: Optional[List[Tuple[int, Section]]] = None
        self._entry_region: Optional[_RegionSpec] = plan.entry
        self._barrier_seq = 0
        self._interp: Optional[Interpreter] = None

    # -- plumbing the interpreter's env in (needed to evaluate specs) ----

    def bind_interp(self, interp: Interpreter) -> None:
        self._interp = interp

    def charge(self, us: float) -> None:
        self.comm.compute(us)

    def phase_marker(self, label: str) -> None:
        if self.comm.tel is not None:
            self.comm.proc.flush()      # the marker reads the clock
            self.comm.tel.marker(self.pid, label)

    def acquire(self, lid: int) -> None:
        raise HpfError("XHPF code cannot contain locks")

    release = acquire

    def validate(self, sections, access, w_sync, asynchronous) -> None:
        raise HpfError("XHPF code cannot contain Validate")

    def push(self, reads, writes) -> None:
        raise HpfError("XHPF code cannot contain Push")

    # ------------------------------------------------------------------

    def _as_each_sees(self, evaluate) -> List[List[Section]]:
        """One of a region's exchange sets, per processor."""
        env = self._interp.env
        return [evaluate(self.program.bindings_for(q, env))
                for q in range(self.nprocs)]

    def barrier(self) -> None:
        site = self._current_barrier()
        if self._entry_region is not None:
            # First barrier: the entry region's writes were evaluated
            # lazily (same env as program start still holds).
            self._pending_writes = self._eval_region_writes(
                self._entry_region)
            self._entry_region = None
        self._register_writes()
        self._exchange(site)
        self._pending_writes = self._eval_region_writes(
            self.plan.by_barrier[id(site)])
        self._barrier_seq += 1

    def _eval_region_writes(self, region: _RegionSpec):
        return [(q, sec)
                for q, secs in enumerate(self._as_each_sees(region.writes))
                for sec in secs]

    def _current_barrier(self) -> Barrier:
        stmt = self._interp.current_stmt
        if not isinstance(stmt, Barrier):
            raise HpfError("barrier() outside a Barrier statement")
        return stmt

    def _register_writes(self) -> None:
        if not self._pending_writes:
            return
        version = self._barrier_seq + 1
        for q, sec in self._pending_writes:
            self._written[q][(sec.array, sec.dims)] = version

    def _exchange(self, site: Barrier) -> None:
        next_region = self.plan.by_barrier[id(site)]
        me = self.pid
        # What each processor needs to read after this barrier.
        needs = self._as_each_sees(next_region.reads)
        # Deterministic schedule: for every (writer w, reader r) pair,
        # ship unshipped intersections of w's write log with r's needs.
        # Each part carries its version: several writers' (possibly
        # stale) entries can overlap one need, so the receiver must
        # apply parts in version order — freshest last.
        transfers: Dict[Tuple[int, int], List[Tuple[int, Section]]] = {}

        def superseded(array: str, part: Section, version: int) -> bool:
            """A strictly fresher write entry fully covers this part."""
            for q2 in range(self.nprocs):
                for (a2, dims2), v2 in self._written[q2].items():
                    if a2 != array or v2 <= version:
                        continue
                    if Section(a2, dims2).contains(part):
                        return True
            return False

        for w in range(self.nprocs):
            for (array, dims), version in sorted(
                    self._written[w].items(),
                    key=lambda item: (item[0][0], repr(item[0][1]))):
                wsec = Section(array, dims)
                for r in range(self.nprocs):
                    if r == w:
                        continue
                    for need in needs[r]:
                        inter = wsec.intersect(need)
                        if inter is None or inter.empty:
                            continue
                        key = (r, w, array, dims, repr(need.dims))
                        if self._shipped.get(key, 0) >= version:
                            continue
                        if superseded(array, inter, version):
                            continue
                        self._shipped[key] = version
                        transfers.setdefault((w, r), []).append(
                            (version, inter))
        tag = ("xh", self._barrier_seq)
        for (w, r), parts in sorted(transfers.items()):
            if w != me:
                continue
            payload = []
            for version, sec in parts:
                acc = self.accessor(sec.array)
                payload.append((version, sec, acc.read(sec).copy()))
            self.comm.send(r, payload, tag=tag)
        incoming = []
        for (w, r), parts in sorted(transfers.items()):
            if r != me:
                continue
            for version, sec, data in self.comm.recv(src=w, tag=tag):
                incoming.append((version, w, sec, data))
        for version, w, sec, data in sorted(
                incoming, key=lambda t: (t[0], t[1])):
            self.accessor(sec.array).write(sec, data)


def xhpf_main(program: Program) -> Callable:
    """Compile ``program`` (or raise :class:`HpfError`) into the
    per-processor main of its XHPF version: ``main(comm)`` runs the
    program on its replica and returns its :class:`XhpfRuntime`."""
    plan = compile_xhpf(program)

    def main(comm) -> XhpfRuntime:
        rt = XhpfRuntime(comm, program, plan)
        interp = Interpreter(program, rt)
        rt.bind_interp(interp)
        interp.run()
        return rt

    return main


def merge_replicas(program: Program, runtimes: Sequence[XhpfRuntime]
                   ) -> Dict[str, np.ndarray]:
    """The final arrays from the processors' replicas: each element from
    its last writer (processor images agree except where only the owner
    wrote; the deterministic write log picks)."""
    out: Dict[str, np.ndarray] = {}
    nprocs = len(runtimes)
    for decl in program.shared_arrays():
        base = runtimes[0].accessor(decl.name).whole().copy()
        merged = base
        # Overlay every processor's owned writes (last versions win in
        # registration order; disjoint by owner-computes).
        entries = []
        for q in range(nprocs):
            for (array, dims), version in runtimes[0]._written[q].items():
                if array == decl.name:
                    entries.append((version, q, dims))
        for version, q, dims in sorted(entries, key=lambda e: e[0]):
            sec = Section(decl.name, dims)
            idx = tuple(slice(lo, hi + 1, st) for lo, hi, st in sec.dims)
            merged[idx] = runtimes[q].accessor(decl.name).whole()[idx]
        out[decl.name] = merged
    return out
