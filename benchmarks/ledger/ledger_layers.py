"""Per-layer microbenchmarks: one layer's public calls, no application.

Every metric is the median of :data:`REPS` repetitions of a fixed
amount of work, timed from outside the layer.  The amounts are sized
for roughly 20-50 ms per repetition on the machine that defined the
benchmark: the driver's time cap leaves about ten seconds for all of
them in one traced run.  Repetitions are interleaved (one of every
metric, then the next of every metric) so that a burst of machine
noise costs many metrics one sample each instead of one metric all of
its samples.  Import only after :func:`ledger_protocol.pin`.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, Tuple

import numpy as np

from repro.apps import get_app
from repro.compiler.transform import transform
from repro.harness import RunSpec, run, run_seq
from repro.harness.modes import OPT_LEVELS
from repro.inspect import InspectReport
from repro.machine import MachineConfig
from repro.memory import SharedLayout
from repro.memory.layout import MemoryImage
from repro.memory.section import Section
from repro.net import Network, OneSidedPlane
from repro.net.onesided import read as rdma_read
from repro.rt.interface import READ, AugmentedRuntime
from repro.sanitizer import Sanitizer
from repro.sim import Engine
from repro.telemetry import Telemetry
from repro.tm.diffs import apply_diff, make_diff
from repro.tm.system import TmSystem

import ledger_workloads as lw

REPS = 7

#: ``once()`` does a fixed amount of work and returns the host seconds
#: the timed part of it took.
Once = Callable[[], float]
#: One metric: its ``once`` and how median seconds become its value.
Probe = Tuple[Once, Callable[[float], float]]


def per(units: int, scale: float = 1e6) -> Callable[[float], float]:
    """Seconds for ``units`` operations -> 1/``scale`` s per operation."""
    return lambda seconds: seconds / units * scale


def timed(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------

def sim_ring(nprocs: int, rounds: int) -> Once:
    """``nprocs`` processes pass one wake-up round a ring ``rounds``
    times: ``nprocs * rounds`` thread handoffs through the engine."""
    def once() -> float:
        engine = Engine()
        procs = []

        def main(proc) -> None:
            nxt = procs[(proc.pid + 1) % nprocs]
            for _ in range(rounds):
                if proc.pid == 0:
                    nxt.wake()
                    proc.wait()
                else:
                    proc.wait()
                    nxt.wake()

        for i in range(nprocs):
            procs.append(engine.add_process(f"p{i}", main))
        return timed(engine.run)
    return once


def sim_advance_fast(n: int) -> Once:
    def once() -> float:
        engine = Engine()

        def main(proc) -> None:
            for _ in range(n):
                proc.advance(1.0)

        engine.add_process("p0", main)
        return timed(engine.run)
    return once


def sim_event(n: int) -> Once:
    def once() -> float:
        engine = Engine()

        def noop() -> None:
            pass

        def work() -> None:
            for i in range(n):
                engine.call_after(float(i), noop)
            engine.run()

        return timed(work)
    return once


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------

def _two_endpoints(main0, onesided: bool = False, **net_kw):
    """An engine with P0 running ``main0(ep, plane)`` against a P1 that
    serves interrupts until told to stop."""
    engine = Engine()
    cfg = MachineConfig(nprocs=2)
    net = Network(engine, cfg, 2, **net_kw)
    plane = None
    if onesided:
        plane = net.onesided = OneSidedPlane(net)

    def requester(proc) -> None:
        main0(net.endpoint(0), plane)
        net.endpoint(0).send(1, "stop")

    def responder(proc) -> None:
        ep = net.endpoint(1)

        def handle(msg) -> None:
            ep.charge(cfg.request_service)
            ep.send(msg.src, "reply")

        ep.on("request", handle)
        ep.recv(kind="stop")

    for i, main in enumerate((requester, responder)):
        net.attach(engine.add_process(f"p{i}", main))
    return engine, plane


def net_roundtrip(n: int, **net_kw) -> Once:
    def once() -> float:
        def main0(ep, _plane) -> None:
            for _ in range(n):
                ep.send(1, "request")
                ep.recv(kind="reply")

        engine, _ = _two_endpoints(main0, **net_kw)
        return timed(engine.run)
    return once


def net_onesided(n: int, batch: int) -> Once:
    def once() -> float:
        ops = [rdma_read("w")] * batch

        def main0(_ep, plane) -> None:
            for _ in range(n):
                plane.post(0, 1, ops)

        engine, plane = _two_endpoints(main0, onesided=True)
        plane.register(1, "w", value=b"\0" * 64, nbytes=64)
        return timed(engine.run)
    return once


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

def _layout_256() -> SharedLayout:
    layout = SharedLayout(page_size=4096)
    layout.add_array("a", (256, 256))
    return layout


#: Column-major layout: eight whole columns are one contiguous 16 KB
#: range; eight whole rows are 256 strided 64-byte runs.
SECTION_COL = Section.of("a", (0, 255), (16, 23))
SECTION_ROW = Section.of("a", (16, 23), (0, 255))


def memory_pages_of(section: Section, n: int) -> Once:
    layout = _layout_256()

    def work() -> None:
        for _ in range(n):
            layout.pages_of(section)
    return lambda: timed(work)


def memory_section_view(n: int) -> Once:
    image = MemoryImage(_layout_256())

    def work() -> None:
        for _ in range(n):
            image.section_view(SECTION_ROW)
    return lambda: timed(work)


# ----------------------------------------------------------------------
# tm, rt
# ----------------------------------------------------------------------

def tm_hits(n: int) -> Tuple[Once, Once, Once]:
    """read / write / Validate on valid, already-twinned pages of a
    one-processor system: the fault-free fast paths."""
    column = Section.of("a", (0, 255), (3, 3))

    def make(which: str) -> Once:
        def once() -> float:
            out = {}

            def main(node) -> None:
                a = node.array("a")
                a.write(column, 1.0)
                rt = AugmentedRuntime(node)
                t0 = perf_counter()
                if which == "read":
                    for _ in range(n):
                        a.read(column)
                elif which == "write":
                    for _ in range(n):
                        a.write(column, 2.0)
                else:
                    for _ in range(n):
                        rt.Validate(column, READ)
                out["dt"] = perf_counter() - t0

            TmSystem(nprocs=1, layout=_layout_256()).run(main)
            return out["dt"]
        return once
    return make("read"), make("write"), make("validate")


def diff_pages() -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """(twin, current) 4096-byte pages per modification pattern."""
    rng = np.random.default_rng(1996)
    twin = rng.integers(0, 255, 4096, dtype=np.uint8)
    words = {
        "sparse": rng.choice(512, size=5, replace=False),   # 1 % of words
        "strided": np.arange(0, 512, 2),
        "block": np.arange(0, 256),
        "full": np.arange(0, 512),
    }
    out = {}
    for name, idx in words.items():
        cur = twin.copy()
        cur.view(np.uint64)[idx] ^= np.uint64(0xFFFFFFFFFFFFFFFF)
        out[name] = (twin, cur)
    return out


def tm_make_diff(twin, cur, n: int) -> Once:
    def work() -> None:
        for _ in range(n):
            make_diff(0, 0, 0, twin, cur)
    return lambda: timed(work)


def tm_apply_diff(twin, cur, n: int) -> Once:
    diff = make_diff(0, 0, 0, twin, cur)
    page = twin.copy()

    def work() -> None:
        for _ in range(n):
            apply_diff(diff, page)
    return lambda: timed(work)


def tm_fault(protocol, data_plane, pages: int, rounds: int) -> Once:
    """Writer, barrier, reader over one-page columns; host seconds per
    read fault taken (a home-based reader faults only on the pages it
    is not home of, so the count is the run's own)."""
    def once() -> float:
        layout = SharedLayout(page_size=4096)
        layout.add_array("a", (512, pages))
        system = TmSystem(nprocs=2, layout=layout, protocol=protocol,
                          data_plane=data_plane)

        def main(node) -> None:
            a = node.array("a")
            for r in range(rounds):
                if node.pid == 0:
                    for c in range(pages):
                        a.write(Section.of("a", (0, 7), (c, c)),
                                float(r + 1))
                node.barrier()
                if node.pid == 1:
                    for c in range(pages):
                        a.read(Section.of("a", (0, 7), (c, c)))
                node.barrier()

        t0 = perf_counter()
        result = system.run(main)
        return (perf_counter() - t0) / result.stats.read_faults
    return once


def tm_barrier(nprocs: int, rounds: int) -> Once:
    def once() -> float:
        layout = SharedLayout()
        layout.add_array("x", (8,))
        system = TmSystem(nprocs=nprocs, layout=layout)

        def main(node) -> None:
            for _ in range(rounds):
                node.barrier()

        return timed(lambda: system.run(main))
    return once


def tm_lock(data_plane, nprocs: int, rounds: int) -> Once:
    def once() -> float:
        layout = SharedLayout()
        layout.add_array("x", (8,))
        system = TmSystem(nprocs=nprocs, layout=layout,
                          data_plane=data_plane)

        def main(node) -> None:
            for _ in range(rounds):
                node.lock_acquire(0)
                node.proc.advance(50.0)
                node.lock_release(0)

        return timed(lambda: system.run(main))
    return once


# ----------------------------------------------------------------------
# interp, compiler, apps (the workload's own programs)
# ----------------------------------------------------------------------

def workload_programs(workload: lw.Workload) -> Dict[str, Probe]:
    """Host time of the set-up steps and of the bare interpreter."""
    cells = workload.cells()
    distinct = list({(c.app, tuple(sorted(c.params().items()))): c
                     for c in cells}.values())

    def build() -> None:
        for c in cells:
            get_app(c.app).build_program(c.params(), c.nprocs)

    programs = [(get_app(c.app).build_program(c.params(), c.nprocs),
                 OPT_LEVELS[c.opt]) for c in cells]

    def compile_() -> None:
        for program, opt in programs:
            if opt is not None:
                transform(program, opt)

    def reference() -> None:
        for c in cells:
            lw.reference_arrays(c)

    seq = [get_app(c.app).build_program(c.params(), 1) for c in distinct]

    def interpret() -> None:
        for program in seq:
            run_seq(program)

    return {
        "apps.build_ms": (lambda: timed(build), per(1, 1e3)),
        "compiler.transform_ms": (lambda: timed(compile_), per(1, 1e3)),
        "apps.reference_ms": (lambda: timed(reference), per(1, 1e3)),
        "interp.seq_s": (lambda: timed(interpret), per(1, 1.0)),
    }


# ----------------------------------------------------------------------
# telemetry, inspect, sanitizer
# ----------------------------------------------------------------------

def telemetry_emit(n: int, enabled: bool) -> Once:
    def once() -> float:
        tel = Telemetry(events=enabled).bind(lambda: 0.0, 1)

        def work() -> None:
            for _ in range(n):
                tel.event(0, "ledger.probe", page=3)
        return timed(work)
    return once


def telemetry_access(n: int) -> Once:
    dims = ((0, 255, 1), (3, 3, 1))

    def once() -> float:
        tel = Telemetry(access_events=True).bind(lambda: 0.0, 1)

        def work() -> None:
            for _ in range(n):
                tel.access(0, "rt.read", "a", dims, (1,))
        return timed(work)
    return once


def observers() -> Dict[str, Probe]:
    """Inspector and sanitizer over one recorded fft3d/push run."""
    cell = lw.Cell("fft3d", "tiny", "push", nprocs=4, page_size=1024)
    spec = cell.spec()
    spec.telemetry = Telemetry(access_events=True)
    out = run(spec)
    events = list(out.telemetry.bus.events)
    layout = lw.prepare(cell).system.layout

    def inspect() -> None:
        problems = InspectReport.build(out).reconcile()
        if problems:
            raise RuntimeError(f"inspector does not reconcile: {problems}")

    def sanitize() -> None:
        san = Sanitizer(layout, cell.nprocs, opt=OPT_LEVELS[cell.opt])
        for ev in events:
            san.feed(ev)
        if san.finish().findings:
            raise RuntimeError("sanitizer reports findings on fft3d/push")

    return {
        "inspect.build_reconcile_ms":
            (lambda: timed(inspect), per(1, 1e3)),
        "sanitizer.events_per_s":
            (lambda: timed(sanitize), lambda s: len(events) / s),
    }


# ----------------------------------------------------------------------

def probes(workload: lw.Workload) -> Dict[str, Probe]:
    """One probe per ``micro`` metric of PER_LAYER."""
    read_hit, write_hit, validate = tm_hits(2000)
    out: Dict[str, Probe] = {
        "sim.switch_us": (sim_ring(2, 1500), per(3000)),
        "sim.ring_switch_us.p8": (sim_ring(8, 400), per(3200)),
        "sim.advance_fast_us": (sim_advance_fast(50_000), per(50_000)),
        "sim.event_us": (sim_event(20_000), per(20_000)),
        "net.roundtrip_us": (net_roundtrip(300), per(300)),
        "net.transport_roundtrip_us":
            (net_roundtrip(300, transport=True), per(300)),
        "memory.pages_of_us.col":
            (memory_pages_of(SECTION_COL, 3000), per(3000)),
        "memory.pages_of_us.row":
            (memory_pages_of(SECTION_ROW, 100), per(100)),
        "memory.section_view_us": (memory_section_view(5000), per(5000)),
        "tm.read_hit_us": (read_hit, per(2000)),
        "tm.write_hit_us": (write_hit, per(2000)),
        "rt.validate_us": (validate, per(2000)),
        "tm.barrier_us.p8": (tm_barrier(8, 40), per(40)),
        "tm.lock_us.twosided": (tm_lock(None, 4, 25), per(100)),
        "tm.lock_us.onesided": (tm_lock("onesided", 4, 25), per(100)),
        "telemetry.emit_on_ns":
            (telemetry_emit(20_000, True), per(20_000, 1e9)),
        "telemetry.emit_off_ns":
            (telemetry_emit(100_000, False), per(100_000, 1e9)),
        "telemetry.access_emit_ns":
            (telemetry_access(20_000), per(20_000, 1e9)),
    }
    for batch in (1, 8, 32):
        n = 256 // batch
        out[f"net.onesided_op_us.b{batch}"] = (
            net_onesided(n, batch), per(n * batch))
    for name, (twin, cur) in diff_pages().items():
        out[f"tm.make_diff_us.{name}"] = (
            tm_make_diff(twin, cur, 400), per(400))
        out[f"tm.apply_diff_us.{name}"] = (
            tm_apply_diff(twin, cur, 1000), per(1000))
    for name, protocol, plane in (("mw-lrc", None, None),
                                  ("hlrc", "hlrc", None),
                                  ("hlrc-onesided", "hlrc", "onesided")):
        out[f"tm.fault_us.{name}"] = (
            tm_fault(protocol, plane, 32, 4), per(1))
    out.update(workload_programs(workload))
    out.update(observers())
    return out


def measure_all(workload: lw.Workload) -> Dict[str, float]:
    """Every ``micro`` metric: median of REPS interleaved samples."""
    todo = probes(workload)
    samples: Dict[str, list] = {name: [] for name in todo}
    for _ in range(REPS):
        for name, (once, _) in todo.items():
            samples[name].append(once())
    return {name: finish(statistics.median(samples[name]))
            for name, (_, finish) in todo.items()}
