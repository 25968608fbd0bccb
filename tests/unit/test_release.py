"""Released means unreachable: what a run allocates per processor dies
by reference count alone, without waiting for the cycle collector.

A caller that runs one system after another (every sweep, the ledger)
otherwise piles up byte images: the cached per-array views, the shared
access plan and the lowered program must not tie an image, an
interpreter or a runtime's private arrays into a cycle.
"""

import gc
import weakref

import pytest

from repro.apps import get_app
from repro.harness.runner import layout_for
from repro.interp import DsmRuntime, Interpreter, SeqRuntime
from repro.sanitizer import Sanitizer
from repro.tm.system import TmSystem


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def dead(refs):
    return [r() is None for r in refs]


def test_release_frees_images_and_plan_without_gc(no_gc):
    prog = get_app("jacobi").program("tiny", 4)
    system = TmSystem(nprocs=4, layout=layout_for(prog, page_size=1024))
    threads = []            # weakrefs to what lives on a processor thread

    def main(node):
        rt = DsmRuntime(node, prog)
        interp = Interpreter(prog, rt)
        interp.run()
        threads.extend(weakref.ref(o) for o in (
            interp, rt, rt.accessor("a").whole(), rt.accessor("b")))

    system.run(main)
    assert all(dead(threads)), "interpreter state outlived its thread"
    arrays = system.snapshot()
    images = [weakref.ref(n.image) for n in system.nodes]
    views = [weakref.ref(n.image.view("b")) for n in system.nodes]
    assert system.layout.info("b").plan
    system.release()
    assert all(dead(images)) and all(dead(views))
    assert not system.layout.info("b").plan
    assert arrays["b"].shape == (64, 64)     # the snapshot is a copy


def test_lowered_program_holds_no_processor_state(no_gc):
    prog = get_app("jacobi").program("tiny", 1)
    rt = SeqRuntime(prog)
    interp = Interpreter(prog, rt)
    interp.run()
    refs = [weakref.ref(interp), weakref.ref(rt),
            weakref.ref(rt.accessor("b").whole())]
    del interp, rt
    assert prog.lowered is not None
    assert all(dead(refs))


def test_finished_sanitizer_gives_back_its_shadow(no_gc):
    """The sanitizer hangs off the event bus of a (cyclic) system; its
    shadow state must not wait for the collector with it."""
    prog = get_app("jacobi").program("tiny", 4)
    san = Sanitizer(layout_for(prog, page_size=1024), 4)
    refs = [weakref.ref(san.shadow), weakref.ref(san.shadow.r_clock["b"]),
            weakref.ref(san.hints)]
    assert san.finish().findings == []
    assert all(dead(refs))
