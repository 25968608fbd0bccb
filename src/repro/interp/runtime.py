"""Runtime facades the interpreter executes against."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import InterpError
from repro.lang.nodes import Program
from repro.memory.section import Section
from repro.rt.access import AccessType
from repro.tm.sharedarray import SectionAccess


class LocalAccessor(SectionAccess):
    """Plain numpy backing for private arrays (and all arrays in
    SeqRuntime): sections are accessed without any detection."""

    def __init__(self, arr: np.ndarray) -> None:
        self._view = arr
        self._index: Dict[tuple, tuple] = {}    # dims -> numpy index

    def _check(self, dims, read: bool, write: bool):
        idx = self._index.get(dims)
        if idx is None:
            idx = self._index[dims] = tuple(
                slice(lo, hi + 1, step) for lo, hi, step in dims)
        return idx

    def whole(self) -> np.ndarray:
        return self._view


def _alloc(decl) -> np.ndarray:
    return np.zeros(decl.shape, dtype=decl.dtype, order="F")


class BaseRuntime:
    """Common plumbing: private arrays, accessor lookup, and the
    uniprocessor meaning of synchronisation and hints (nothing to do)
    for the parallel runtimes to override."""

    def __init__(self, program: Program, pid: int, nprocs: int) -> None:
        self.program = program
        self.pid = pid
        self.nprocs = nprocs
        self._accessors: Dict[str, SectionAccess] = {
            d.name: LocalAccessor(_alloc(d))
            for d in program.private_arrays()}

    def accessor(self, name: str):
        acc = self._accessors.get(name)
        if acc is None:
            acc = self._accessors[name] = self._make_shared(name)
        return acc

    def _make_shared(self, name: str):
        raise InterpError(f"unknown array {name!r}")

    #: Whether ``charge`` banks (the process's clock moves at its next
    #: blocking point, :meth:`repro.sim.engine.Process.flush`): what
    #: lets the lowered program run a fault-free nest as one section.
    banks = False

    def charge(self, us: float) -> None:
        raise NotImplementedError

    def charge_columns(self, costs: Sequence[float], ncols: int) -> None:
        """``charge`` each of ``costs``, in order, ``ncols`` times over:
        what a collapsed nest's columns would have charged one by one."""
        charge = self.charge
        for _ in range(ncols):
            for us in costs:
                charge(us)

    def barrier(self) -> None:
        raise NotImplementedError

    def acquire(self, lid: int) -> None:
        pass

    def release(self, lid: int) -> None:
        pass

    def validate(self, sections: Sequence[Section], access: AccessType,
                 w_sync: bool, asynchronous: bool) -> None:
        pass

    def push(self, reads: List[List[Section]],
             writes: List[List[Section]]) -> None:
        pass

    def phase_marker(self, label: str) -> None:
        """Record a labelled program phase boundary (telemetry only)."""


class SeqRuntime(BaseRuntime):
    """Uniprocessor reference: all arrays local, clock = compute cost.

    Matches the paper's uniprocessor baseline, "obtained by removing all
    synchronization from the TreadMarks programs".
    """

    def __init__(self, program: Program, telemetry=None) -> None:
        super().__init__(program, pid=0, nprocs=1)
        for d in program.shared_arrays():
            self._accessors[d.name] = LocalAccessor(_alloc(d))
        self.time = 0.0
        self.tel = telemetry
        if telemetry is not None:
            telemetry.bind(lambda: self.time, 1)

    def charge(self, us: float) -> None:
        if us > 0 and self.tel is not None:
            self.tel.span(0, "compute", self.time, self.time + us)
        self.time += us

    def barrier(self) -> None:
        if self.tel is not None:
            self.tel.barrier(0)

    def phase_marker(self, label: str) -> None:
        if self.tel is not None:
            self.tel.marker(0, label)


class DsmRuntime(BaseRuntime):
    """Interpreter runtime backed by a TreadMarks node."""

    def __init__(self, node, program: Program) -> None:
        super().__init__(program, pid=node.pid, nprocs=node.nprocs)
        self.node = node
        #: Wall-clock profiler (``None`` when unobserved); picked up by
        #: the interpreter for its statements/sec counter.
        self.prof = node.prof
        #: An untraced run banks compute; a traced one charges each
        #: burst at once, so its span and access events keep their time.
        self.banks = node.tel is None
        self._bank_charge = node.proc.bank_charge

    def _make_shared(self, name: str):
        return self.node.array(name)

    def charge(self, us: float) -> None:
        if us > 0:
            if self.banks:
                self._bank_charge(us)
            else:
                self.node.proc.advance(us)

    def barrier(self) -> None:
        self.node.barrier()

    def phase_marker(self, label: str) -> None:
        tel = self.node.tel
        if tel is not None:
            tel.marker(self.node.pid, label)

    def acquire(self, lid: int) -> None:
        self.node.lock_acquire(lid)

    def release(self, lid: int) -> None:
        self.node.lock_release(lid)

    def validate(self, sections, access, w_sync, asynchronous) -> None:
        if w_sync:
            self.node.validate_w_sync(sections, access,
                                      asynchronous=asynchronous)
        else:
            self.node.validate(sections, access, asynchronous=asynchronous)

    def push(self, reads, writes) -> None:
        self.node.push(reads, writes)
