"""The two steps of a run that are public on their own: laying out a
program's shared arrays, and the uniprocessor run.

Every other run goes through :func:`repro.harness.spec.run`.
"""

from __future__ import annotations

from repro.harness.outcome import RunOutcome
from repro.interp.interp import Interpreter
from repro.interp.runtime import SeqRuntime
from repro.lang.nodes import Program
from repro.memory.layout import SharedLayout


def layout_for(program: Program, page_size: int = 4096) -> SharedLayout:
    layout = SharedLayout(page_size=page_size)
    for decl in program.shared_arrays():
        layout.add_array(decl.name, decl.shape, decl.dtype)
    return layout


def run_seq(program: Program, telemetry=None) -> RunOutcome:
    """Uniprocessor run: compute cost only (Table 1 baseline)."""
    rt = SeqRuntime(program, telemetry=telemetry)
    Interpreter(program, rt).run()
    arrays = {d.name: rt.accessor(d.name).whole().copy()
              for d in program.shared_arrays()}
    return RunOutcome(mode="seq", time=rt.time, arrays=arrays,
                      telemetry=telemetry)
