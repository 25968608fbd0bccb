"""Error-path and edge-case tests across the stack."""

import numpy as np
import pytest

from repro.errors import (CompileError, InterpError, LayoutError,
                          ProtocolError, SectionError, SimulationError)
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program
from repro.memory import Section, SharedLayout
from repro.sim import Engine
from repro.tm.system import TmSystem


def test_release_unheld_lock_raises():
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (8,))
    system = TmSystem(nprocs=2, layout=layout)

    def main(node):
        if node.pid == 0:
            node.lock_release(3)

    with pytest.raises(SimulationError) as info:
        system.run(main)
    assert isinstance(info.value.__cause__, ProtocolError)


def test_engine_rejects_past_events():
    engine = Engine()

    def main(proc):
        proc.advance(10.0)
        with pytest.raises(SimulationError):
            proc.engine.call_at(1.0, lambda: None)

    engine.add_process("p", main)
    engine.run()


def test_engine_cannot_run_twice():
    engine = Engine()
    engine.add_process("p", lambda proc: proc.advance(1.0))
    engine.run()
    with pytest.raises(SimulationError):
        engine.run()


def test_cannot_add_process_after_run():
    engine = Engine()
    engine.add_process("p", lambda proc: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.add_process("q", lambda proc: None)


def test_section_out_of_bounds_rejected_by_layout():
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (8,))
    with pytest.raises(LayoutError):
        layout.byte_ranges(Section.of("x", (0, 100)))
    with pytest.raises(LayoutError):
        layout.byte_ranges(Section.of("y", (0, 3)))


def test_dims_level_entry_refuses_what_section_and_runs_did():
    """``resolve_dims`` checks step, rank and bounds itself, in the
    order and with the messages of ``Section(...)`` then ``_runs``; an
    empty section may overhang and touches no page."""
    layout = SharedLayout(page_size=256)
    info = layout.add_array("x", (8, 4))
    with pytest.raises(SectionError, match=r"non-positive step in x\[0:3:0\]"):
        layout.resolve_dims(info, ((0, 3, 0),))        # step before rank
    with pytest.raises(SectionError, match="non-positive step"):
        layout.resolve_dims(info, ((5, 3, -1), (0, 0, 1)))  # before empty
    with pytest.raises(LayoutError, match=r"section x\[0:3\] has wrong rank"):
        layout.resolve_dims(info, ((0, 3, 1),))
    with pytest.raises(LayoutError,
                       match=r"section x\[0:8, 0:0\] exceeds bounds of 'x' "
                             r"\(8, 4\)"):
        layout.resolve_dims(info, ((0, 8, 1), (0, 0, 1)))
    with pytest.raises(LayoutError, match="exceeds bounds"):
        layout.pages_of(Section.of("x", (-1, 3), (0, 0)))
    assert not info.plan
    assert layout.resolve_dims(info, ((5, 3, 1), (0, 99, 1))) == \
        ((), (slice(5, 4, 1), slice(0, 100, 1)), (0, 100),
         ((5, 3, 1), (0, 99, 1)))


def test_interp_unknown_array():
    x = B.array_ref("nope")
    prog = Program("t", [ArrayDecl("x", (8,))],
                   [B.assign(x(0), 1.0)])
    from repro.interp import Interpreter, SeqRuntime
    with pytest.raises(InterpError):
        Interpreter(prog, SeqRuntime(prog)).run()


def test_transform_refuses_conditional_sync():
    body = [B.when(B.sym("p").eq(0), [B.barrier("b")])]
    prog = Program("t", [ArrayDecl("x", (8,))], body)
    from repro.compiler import OptConfig, transform
    with pytest.raises(CompileError):
        transform(prog, OptConfig(name="o"))


def test_zero_size_sections_are_skipped_by_validate():
    """Empty evaluated sections (clipped away) must not crash."""
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (8,))
    system = TmSystem(nprocs=1, layout=layout)

    def main(node):
        from repro.rt import AccessType
        # Empty after construction: lo > hi.
        node.validate([Section("x", ((5, 3, 1),))], AccessType.READ)
        node.barrier()

    res = system.run(main)
    assert res.time >= 0


def test_single_processor_system_works():
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (16,))
    system = TmSystem(nprocs=1, layout=layout)

    def main(node):
        x = node.array("x")
        node.lock_acquire(0)
        x[0:16] = 3.0
        node.lock_release(0)
        node.barrier()
        return float(x[0:16].sum())

    res = system.run(main)
    assert res.returns == [48.0]
    assert res.messages == 0


def test_program_missing_param_raises():
    i = B.sym("i")
    x = B.array_ref("x")
    prog = Program("t", [ArrayDecl("x", (8,))],
                   [B.loop(i, 0, B.sym("N") - 1, [B.assign(x(i), 1.0)])])
    from repro.interp import Interpreter, SeqRuntime
    with pytest.raises(InterpError):
        Interpreter(prog, SeqRuntime(prog)).run()


def test_snapshot_on_diverged_returns_consistent_state():
    """Snapshot after a normal run equals what any reader would see."""
    layout = SharedLayout(page_size=256)
    layout.add_array("x", (32,))
    system = TmSystem(nprocs=2, layout=layout)

    def main(node):
        x = node.array("x")
        x[node.pid * 16:(node.pid + 1) * 16] = node.pid + 1.0
        node.barrier()
        return float(x[0:32].sum())

    res = system.run(main)
    snap = system.snapshot()
    assert snap["x"].sum() == res.returns[0]
