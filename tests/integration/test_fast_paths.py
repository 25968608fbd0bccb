"""A run that banks and collapses reproduces the run that does neither.

A DSM run banks its compute (``Process.bank_charge``, spent by
``Process.flush`` at the next blocking point or clock read) and runs a
fault-free affine nest as one section (``interp/lower.py``), traced or
not.  The run ``repro check`` judges records every access
(``Telemetry(access_events=True)``): it flushes at each access and
collapses nothing.  Every DSM cell of the run matrix therefore runs
here untraced, and must equal its judged run
(:mod:`tests.integration.judged`): finish time with ``==``, the record,
every processor's ``TmStats`` and the arrays' bytes.  Traced without
access events, it must record the judged run's trace but for the
accesses: the same spans, and the same events, at the same times.

The replay is exact because of two facts, each tested below:

1. only process context -- the processor's own thread, or a step it
   blocked on -- lowers one of its pages' permissions, so a check that
   passes at a compute phase's start passes at each of its columns;
2. a handler reads no byte the process may still be writing: a diff it
   makes is of a closed interval, whose pages stay write-protected
   until a fault of the process's own makes the diff first, and the
   home bytes it serves are, the sanitizer's race verdict on every cell
   says, read by no one else unsynchronized.
"""

from dataclasses import replace

import pytest

from repro.faults import Absence, FaultPlan
from repro.harness import RunSpec, run
from repro.harness.modes import SIZING, run_matrix
from repro.interp.runtime import DsmRuntime
from repro.sim.engine import ProcessState
from repro.telemetry import Telemetry
from repro.tm.meta import PageMeta
from repro.tm.node import TmNode

from .judged import (fingerprint, judged_trace, trace_digest,
                     traced_fingerprint)

DSM = [s for s in run_matrix(modes=("dsm",))]


@pytest.mark.parametrize("spec", DSM, ids=lambda s: s.key)
def test_untraced_run_equals_the_judged_run(spec):
    got, want = fingerprint(run(spec)), traced_fingerprint(spec.key)
    assert got["time"] == want["time"]
    assert got == want


@pytest.mark.parametrize("spec", DSM, ids=lambda s: s.key)
def test_a_trace_does_not_depend_on_banking(spec):
    got = trace_digest(run(replace(spec, telemetry=Telemetry())))
    assert got == judged_trace(spec.key)


@pytest.mark.parametrize("key", ["jacobi/dsm/push", "is/dsm/base",
                                 "gauss/dsm/merge"])
def test_an_access_is_recorded_where_the_compute_before_it_ends(
        monkeypatch, key):
    """The judged run spends the banked compute before it records an
    access: its trace, accesses included, is that of a run whose every
    charge is spent where it is made."""
    spec = replace(RunSpec.from_key(key, **SIZING),
                   telemetry=Telemetry(access_events=True))
    banked = run(spec).telemetry
    monkeypatch.setattr(DsmRuntime, "charge",
                        lambda rt, us: rt.node.proc.advance(us))
    at_once = run(replace(spec, telemetry=Telemetry(access_events=True)))
    assert banked.spans.spans == at_once.telemetry.spans.spans
    assert banked.bus.events == at_once.telemetry.bus.events


class _Watched(PageMeta):
    """A page that reports who lowers its permission."""

    def __setattr__(self, name, value):
        if name in ("valid", "write_enabled") and not value \
                and getattr(self, name, False):
            self._seen.append((self._proc.name, name,
                               self._proc.state is ProcessState.RUNNING))
        object.__setattr__(self, name, value)


@pytest.fixture
def lowerings(monkeypatch):
    """Every permission lowering of the runs that follow, as
    ``(processor, field, in process context)``."""
    seen = []
    init = TmNode.__init__

    def watched_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        for meta in node.pages:
            meta.__class__ = _Watched
            object.__setattr__(meta, "_proc", node.proc)
            object.__setattr__(meta, "_seen", seen)

    monkeypatch.setattr(TmNode, "__init__", watched_init)
    return seen


FACT_CELLS = [s for s in DSM if s.opt in ("base", "push", "merge")]


def test_only_process_context_lowers_a_permission(lowerings):
    for spec in FACT_CELLS:
        run(spec)
    for plan in (Absence("crash", 1, 3000.0, 200.0),
                 Absence("drain", 2, 3000.0, 2000.0)):
        run(RunSpec(app="jacobi", opt="push", **SIZING,
                    faults=FaultPlan(absences=(plan,))))
    assert {ctx for _, _, ctx in lowerings} == {True}
    assert {field for _, field, _ in lowerings} == {"valid",
                                                    "write_enabled"}


def test_a_handler_diffs_only_write_protected_pages(monkeypatch):
    served = []
    flush = TmNode._flush_undiffed

    def watched(node, page):
        if node.proc.state is not ProcessState.RUNNING \
                and node.pages[page].undiffed is not None:
            served.append(node.pages[page].write_enabled)
        flush(node, page)

    monkeypatch.setattr(TmNode, "_flush_undiffed", watched)
    for spec in FACT_CELLS:
        if spec.protocol is None and spec.data_plane is None:
            run(spec)
    assert served and not any(served)
