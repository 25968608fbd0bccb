"""The IR interpreter: one processor's bindings for the lowered program.

Execution is SPMD: every simulated processor runs the same lowered
program (:mod:`repro.interp.lower`, built once and shared) with its own
``env`` (``p`` bound to its id), its own accessors and its own runtime.
Array accesses go through the runtime's accessors, which (in the DSM
case) perform page-granularity access detection — the software
equivalent of TreadMarks' hardware faults.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import InterpError
from repro.interp.lower import lower
from repro.lang.nodes import Kernel, Program, Stmt, ValidateStmt


class _Env(dict):
    """Symbol bindings; an unbound symbol is an :class:`InterpError`."""

    def __missing__(self, name):
        raise InterpError(f"unbound symbol {name!r}")


class Interpreter:
    """Runs one program on one runtime (one simulated processor)."""

    def __init__(self, program: Program, runtime) -> None:
        self.program = program
        self.rt = runtime
        self.lowered = lower(program)
        self.env: Dict[str, object] = _Env(program.params)
        self.env["p"] = runtime.pid
        self.env["nprocs"] = runtime.nprocs
        #: Statement currently executing (used by the XHPF runtime to
        #: identify which barrier site it is at).
        self.current_stmt: Optional[Stmt] = None
        #: Wall-clock profiler (``None`` when unobserved): counts
        #: interpreted statements for the throughput report.
        self.prof = getattr(runtime, "prof", None)
        #: This processor's accessors, in the lowered program's order.
        self.accs = [runtime.accessor(a) for a in self.lowered.arrays]

    def run(self):
        self.lowered.run(self)
        return self.rt

    # ------------------------------------------------------------------
    # Kernels, Validate, Push: called by the lowered program, which
    # hands them the statement's compiled section functions
    # (``env`` -> sections; Validate's and Push's clipped, non-empty).
    # ------------------------------------------------------------------

    def _kernel(self, k: Kernel, reads, writes) -> None:
        views: Dict[str, np.ndarray] = {}
        for i, sec in enumerate(reads(self.env)):
            views[f"r{i}"] = self.rt.accessor(sec.array).read(sec)
        for i, sec in enumerate(writes(self.env)):
            views[f"w{i}"] = self.rt.accessor(sec.array).write_view(sec)
        k.fn(self.env, views)

    def _validate(self, v: ValidateStmt, specs) -> None:
        sections = specs(self.env)
        if sections:
            self.rt.validate(sections, v.access, v.w_sync, v.asynchronous)

    def _push(self, reads, writes) -> None:
        envs = [self.program.bindings_for(q, self.env)
                for q in range(self.rt.nprocs)]
        self.rt.push([reads(env) for env in envs],
                     [writes(env) for env in envs])
