"""Run one application in one mode; collect time, stats and final state.

Each ``run_*`` helper accepts an optional ``telemetry`` argument — a
:class:`repro.telemetry.Telemetry` instance that the whole stack
(engine, network, protocol nodes, runtimes) then reports into.  The
returned outcome carries it as ``.telemetry``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.compiler.transform import OptConfig, transform
from repro.harness.outcome import (DsmOutcome, MpOutcome, SeqOutcome,
                                   XhpfOutcome)
from repro.interp.interp import Interpreter
from repro.interp.lower import lower
from repro.interp.runtime import DsmRuntime, SeqRuntime
from repro.lang.nodes import Program
from repro.machine.config import MachineConfig
from repro.memory.layout import SharedLayout
from repro.mp.system import MpSystem
from repro.tm.system import TmSystem


def layout_for(program: Program, page_size: int = 4096) -> SharedLayout:
    layout = SharedLayout(page_size=page_size)
    for decl in program.shared_arrays():
        layout.add_array(decl.name, decl.shape, decl.dtype)
    return layout


def run_seq(program: Program, telemetry=None) -> SeqOutcome:
    """Uniprocessor run: compute cost only (Table 1 baseline)."""
    rt = SeqRuntime(program, telemetry=telemetry)
    Interpreter(program, rt).run()
    arrays = {d.name: rt.accessor(d.name).whole().copy()
              for d in program.shared_arrays()}
    return SeqOutcome(time=rt.time, arrays=arrays, telemetry=telemetry)


def run_dsm(program: Program, nprocs: int,
            opt: Optional[OptConfig] = None,
            config: Optional[MachineConfig] = None,
            page_size: int = 4096,
            snapshot: bool = True,
            gc_threshold: Optional[int] = None,
            eager_diffing: bool = False,
            telemetry=None, faults=None, transport=None,
            protocol: Optional[str] = None,
            data_plane: Optional[str] = None,
            profile=None, monitor=None) -> DsmOutcome:
    """Run on the (optionally compiler-optimized) TreadMarks DSM."""
    prog = transform(program, opt) if opt is not None else program
    lower(prog)     # once, before the run's byte images are allocated
    layout = layout_for(prog, page_size=page_size)
    system = TmSystem(nprocs=nprocs, layout=layout, config=config,
                      gc_threshold=gc_threshold,
                      eager_diffing=eager_diffing,
                      telemetry=telemetry, faults=faults,
                      transport=transport, protocol=protocol,
                      data_plane=data_plane,
                      profile=profile, monitor=monitor)

    def main(node):
        Interpreter(prog, DsmRuntime(node, prog)).run()

    result = system.run(main)
    arrays = system.snapshot() if snapshot else {}
    system.release()
    return DsmOutcome(run=result, arrays=arrays, program=prog,
                      telemetry=telemetry, profile=profile)


def run_mp(app, params: Dict[str, int], nprocs: int,
           config: Optional[MachineConfig] = None,
           telemetry=None, faults=None, transport=None,
           profile=None, monitor=None) -> MpOutcome:
    """Run the hand-coded message-passing (PVMe) version."""
    system = MpSystem(nprocs=nprocs, config=config, telemetry=telemetry,
                      faults=faults, transport=transport,
                      profile=profile, monitor=monitor)
    result = system.run(lambda comm: app.mp_main(comm, dict(params)))
    arrays = {}
    if app.assemble_mp is not None:
        arrays = app.assemble_mp(result.returns, dict(params))
    return MpOutcome(run=result, arrays=arrays, telemetry=telemetry,
                     profile=profile)


def run_xhpf(program: Program, nprocs: int,
             config: Optional[MachineConfig] = None,
             telemetry=None, faults=None, transport=None,
             profile=None, monitor=None) -> XhpfOutcome:
    """Run the XHPF-like compiler-generated message-passing version."""
    from repro.compiler.hpf import lower_xhpf
    return lower_xhpf(program, nprocs, config=config, telemetry=telemetry,
                      faults=faults, transport=transport,
                      profile=profile, monitor=monitor)
