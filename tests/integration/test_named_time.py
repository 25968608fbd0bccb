"""Every simulated CPU microsecond is booked once, by name, on the
interval the engine assigns it.

``Process._charge`` (process context) and ``Process.steal_cpu``
(handler context) are the only places a charge is booked: into the
processor's tally and, when traced, as a span on exactly the interval
it occupies.  So a processor's CPU spans never overlap, every span name
has a critical-path category, and time on the critical path that no
span covers is idle.
"""

import pytest

from repro.faults import Absence, FaultPlan
from repro.harness import RunSpec, run
from repro.harness.modes import SIZING
from repro.inspect import InspectReport
from repro.machine.config import MachineConfig
from repro.net.network import Network
from repro.sim.engine import Engine
from repro.telemetry import Telemetry
from repro.telemetry.spans import CATEGORY, CPU_SPANS
from repro.tm.stats import CPU_FIELDS

#: One traced ``tiny`` cell per mode, backend and plane, and one per
#: kind of absence: between them they book every name of the map.
CELLS = {
    "dsm": dict(app="is", opt="base"),
    "dsm-merge": dict(app="is", opt="merge"),
    "dsm-hlrc": dict(app="is", opt="base", protocol="hlrc"),
    "dsm-onesided": dict(app="is", opt="aggr", data_plane="onesided"),
    "dsm-hlrc-onesided": dict(app="jacobi", opt="push", protocol="hlrc",
                              data_plane="onesided"),
    "mp": dict(app="jacobi", mode="mp"),
    "xhpf": dict(app="jacobi", mode="xhpf"),
    "join": dict(app="jacobi", opt="base", faults=FaultPlan(
        absences=(Absence("join", 3, 0.0, 2000.0),))),
    "crash": dict(app="jacobi", opt="base", faults=FaultPlan(
        absences=(Absence("crash", 1, 3000.0, 2000.0),))),
}


def traced(**cell):
    return run(RunSpec(**SIZING, telemetry=True, **cell))


@pytest.fixture(scope="module")
def outcomes():
    return {name: traced(**cell) for name, cell in CELLS.items()}


def test_the_category_map_is_total_and_every_name_is_booked(outcomes):
    seen = set()
    for name, out in outcomes.items():
        names = {s.name for s in out.telemetry.spans.spans}
        assert names <= set(CATEGORY), (name, names - set(CATEGORY))
        seen |= names
    assert seen == set(CATEGORY)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_the_tally_is_the_spans(outcomes, name):
    """Per processor and name, the tally and the CPU spans agree, and
    the ``TmStats`` CPU fields are the tally."""
    out = outcomes[name]
    assert InspectReport.build(out).reconcile() == []
    for pid, tally in enumerate(out.tally):
        spans = {}
        for s in out.telemetry.spans.spans:
            if s.pid == pid and s.name in CPU_SPANS:
                spans[s.name] = spans.get(s.name, 0.0) + s.dur
        assert spans.keys() <= tally.keys()
        for cpu, us in tally.items():
            assert spans.get(cpu, 0.0) == pytest.approx(us, rel=1e-9,
                                                         abs=1e-6)
        if out.per_proc is not None:
            stats = out.per_proc[pid]
            for cpu, field in CPU_FIELDS.items():
                assert getattr(stats, field) == tally.get(cpu, 0.0)


def test_jacobi_base_critical_path_is_not_other():
    """The fault's SIGSEGV charge and the message overheads were spans
    of no name: 34.8 % of this path was ``other`` before they were
    booked."""
    out = traced(app="jacobi", opt="base")
    cp = InspectReport.build(out).critpath
    assert cp.totals()["other"] < 0.05 * cp.end_ts


# ----------------------------------------------------------------------
# The engine's two spending points.
# ----------------------------------------------------------------------

def engine_with(*mains):
    engine = Engine()
    tel = Telemetry().bind_engine(engine, len(mains))
    procs = [engine.add_process(f"p{i}", m) for i, m in enumerate(mains)]
    return engine, tel, procs


def spans_of(tel):
    return [(s.pid, s.name, s.t0, s.t1) for s in tel.spans.spans]


def test_a_stolen_charge_follows_the_burst_it_interrupts():
    engine, tel, (proc,) = engine_with(lambda p: p.advance(10.0))
    engine.call_at(4.0, lambda: proc.steal_cpu(3.0, "cpu.request"))
    engine.run()
    assert engine.now == 13.0
    assert spans_of(tel) == [(0, "compute", 0.0, 10.0),
                             (0, "cpu.request", 10.0, 13.0)]
    assert proc.tally == {"compute": 10.0, "cpu.request": 3.0}


def test_back_to_back_charges_of_one_name_are_one_span():
    def main(p):
        p.advance(2.0)
        p.advance(3.0)
        p.charge("cpu.fault", 1.0)
        p.advance(4.0)

    engine, tel, (proc,) = engine_with(main)
    engine.run()
    assert spans_of(tel) == [(0, "compute", 0.0, 5.0),
                             (0, "cpu.fault", 5.0, 6.0),
                             (0, "compute", 6.0, 10.0)]


def test_a_charge_stolen_while_waiting_starts_now():
    def main(p):
        p.wait()
        p.charge("net.recv", 2.0)

    engine, tel, (proc,) = engine_with(main)
    engine.call_at(5.0, lambda: proc.charge("net.interrupt", 1.0))
    engine.call_at(5.0, proc.wake)
    engine.run()
    assert spans_of(tel) == [(0, "net.interrupt", 5.0, 6.0),
                             (0, "net.recv", 6.0, 8.0)]


def test_deferred_parts_are_laid_out_over_one_charge():
    parts = [("cpu.request", 15.0), ("cpu.diff", 0.0), ("cpu.diff", 7.5)]
    engine, tel, (proc,) = engine_with(
        lambda p: p.charge(parts, 22.5))
    engine.run()
    assert spans_of(tel) == [(0, "cpu.request", 0.0, 15.0),
                             (0, "cpu.diff", 15.0, 22.5)]
    assert proc.tally == {"compute": 0.0, "cpu.request": 15.0,
                          "cpu.diff": 7.5}


def test_a_banked_charge_is_tallied_once():
    """A banked charge is booked as ``compute`` when it is spent, on
    the interval an ``advance`` of its own would have had."""
    def main(p):
        for us in (1.0, 2.0):
            p.bank_charge(us)
        p.advance(4.0, "cpu.fault")     # after the bank
        p.bank_charge(5.0)              # spent by the end of ``main``

    engine, tel, (proc,) = engine_with(main)
    engine.run()
    assert engine.now == 12.0
    assert proc.tally == {"compute": 8.0, "cpu.fault": 4.0}
    assert spans_of(tel) == [(0, "compute", 0.0, 3.0),
                             (0, "cpu.fault", 3.0, 7.0),
                             (0, "compute", 7.0, 12.0)]


@pytest.mark.parametrize("name", ["dsm", "mp"])
def test_an_untraced_run_tallies_what_a_traced_run_books(outcomes, name):
    """Traced or not, the runtimes bank their compute; the untraced
    tally is the traced run's, float for float."""
    untraced = run(RunSpec(**SIZING, **CELLS[name]))
    assert untraced.tally == outcomes[name].tally


def test_an_endpoint_charge_books_request_service():
    cfg = MachineConfig(nprocs=2)

    def responder(p):
        p.wait()

    engine, tel, procs = engine_with(lambda p: p.advance(1.0), responder)
    net = Network(engine, cfg, 2)
    eps = [net.attach(p) for p in procs]
    engine.call_at(0.5, lambda: eps[1].charge(cfg.request_service))
    engine.call_at(0.5, procs[1].wake)
    engine.run()
    assert procs[1].tally == {"compute": 0.0,
                              "cpu.request": cfg.request_service}


def test_an_offline_node_books_nothing():
    from repro.memory.layout import SharedLayout
    from repro.tm.system import TmSystem

    layout = SharedLayout()
    layout.add_array("x", (8,))
    system = TmSystem(nprocs=2, layout=layout)
    system.run(lambda node: None)
    node = system.nodes[0]
    before = dict(node.proc.tally)
    node.offline = True
    node.charge("cpu.request", 5.0)
    with node._atomic():
        node.charge("cpu.diff", 5.0)
    assert node.proc.tally == before
