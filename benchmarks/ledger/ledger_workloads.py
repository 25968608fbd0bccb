"""The ledger's workloads: fixed cell lists driven through public APIs.

A *cell* is one application run (``repro.harness.run``) or one sweep
case (``repro.harness.{chaos,recover,elastic}.run_case``); a *pass*
executes every cell of a workload once, in order.  Import this module
only after :func:`ledger_protocol.pin`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.apps import get_app
from repro.compiler.transform import transform
from repro.harness import RunSpec, layout_for, run
from repro.harness.modes import OPT_LEVELS
from repro.interp.interp import Interpreter
from repro.interp.runtime import DsmRuntime
from repro.observe import WallProfiler
from repro.tm.system import TmSystem

from ledger_protocol import SpanLog


# ----------------------------------------------------------------------
# Cells.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One application run: the paper's configuration unless stated."""

    app: str
    dataset: str
    opt: str
    nprocs: int = 8
    page_size: int = 4096
    protocol: Optional[str] = None
    data_plane: Optional[str] = None
    #: Dataset parameters replaced to fit the driver's time cap
    #: (iteration counts only: page and message shapes are unchanged).
    scaled: Tuple[Tuple[str, int], ...] = ()

    @property
    def label(self) -> str:
        plane = f"@{self.protocol or 'mw-lrc'}+" \
                f"{self.data_plane or 'twosided'}"
        scaled = "".join(f",{k}={v}" for k, v in self.scaled)
        return f"{self.app}/{self.dataset}{scaled}/{self.opt}{plane}"

    def params(self) -> Dict[str, int]:
        out = dict(get_app(self.app).dataset(self.dataset).params)
        out.update(self.scaled)
        return out

    def spec(self) -> RunSpec:
        return RunSpec(app=self.app, mode="dsm", dataset=self.dataset,
                       params=self.params(), nprocs=self.nprocs,
                       opt=self.opt, page_size=self.page_size,
                       protocol=self.protocol,
                       data_plane=self.data_plane, snapshot=True)


@dataclass(frozen=True)
class Case:
    """One sweep case: a fault-free run plus a perturbed, traced,
    sanitized, inspected run, at the sweeps' own configuration."""

    kind: str                       # "chaos" | "recover" | "elastic"
    app: str
    opt: str
    schedule: str                   # intensity or mined schedule name
    protocol: Optional[str] = None
    data_plane: Optional[str] = None

    @property
    def label(self) -> str:
        plane = "" if self.protocol is None else \
            f"@{self.protocol}+{self.data_plane}"
        return f"{self.kind}:{self.app}/{self.opt}/{self.schedule}{plane}"

    @property
    def cell(self) -> Cell:
        """The application run underneath (what set-up prepares)."""
        return Cell(self.app, "tiny", self.opt, nprocs=4, page_size=1024,
                    protocol=self.protocol, data_plane=self.data_plane)


Op = Union[Cell, Case]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Tuple[Op, ...]

    @property
    def fault_free(self) -> bool:
        return all(isinstance(op, Cell) for op in self.ops)

    def cells(self) -> List[Cell]:
        return [op if isinstance(op, Cell) else op.cell
                for op in self.ops]


def _planes(app: str, opt: str, hlrc_opt: Optional[str] = None,
            **scaled: int) -> Tuple[Cell, Cell]:
    s = tuple(scaled.items())
    return (Cell(app, "bench", opt, scaled=s),
            Cell(app, "bench", hlrc_opt or opt, protocol="hlrc",
                 data_plane="onesided", scaled=s))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "stencil-base",
        "long compute phases between barriers, full-page twins/diffs: "
        "interpreter and diff changes show, engine/transport must not",
        (Cell("jacobi", "bench", "base", scaled=(("iters", 5),)),
         Cell("shallow", "bench", "base", scaled=(("iters", 3),)))),
    Workload(
        "finegrain-base",
        "densest protocol traffic: ~33k messages, ~6k faults, ~100k "
        "engine events and a lock chain: engine/transport/serve show",
        tuple(Cell(app, "tiny", "base")
              for app in ("gauss", "mgs", "is", "fft3d"))),
    Workload(
        "hinted-planes",
        "compiler hints (Validate/Push/merge) on mw-lrc two-sided AND "
        "hlrc one-sided: same layers used differently, the no-change "
        "side of a diff or handler optimisation",
        # jacobi/push on mw-lrc ends with a snapshot that differs from
        # the numpy reference in a few boundary elements whenever a
        # page holds more than one column (README, "Found while
        # building"), so the mw-lrc half runs jacobi's best level that
        # verifies.
        _planes("jacobi", "merge", hlrc_opt="push", iters=5)
        + _planes("fft3d", "push", iters=1)
        + _planes("is", "merge", iters=3)),
    Workload(
        "perturbed-sweep",
        "chaos/recover/elastic cases with telemetry, sanitizer, "
        "inspector, reliable transport, recovery and membership doing "
        "real work: the guard for telemetry-cost and absence-core work",
        (Case("chaos", "fft3d", "push", "moderate"),
         Case("recover", "fft3d", "push", "mid"),
         Case("chaos", "shallow", "aggr+cons", "moderate"),
         Case("chaos", "is", "base", "moderate"),
         Case("recover", "is", "base", "lock"),
         Case("elastic", "is", "base", "drain-master"),
         Case("elastic", "is", "base", "join-early"),
         Case("chaos", "jacobi", "push", "moderate",
              protocol="hlrc", data_plane="onesided"),
         Case("recover", "jacobi", "push", "manager"),
         Case("elastic", "jacobi", "push", "drain-mid"))),
    # Not in BENCHMARK.json: the self-tests' tiny-cell smoke mode.
    Workload(
        "smoke", "self-test only: two tiny cells, one on each plane",
        (Cell("jacobi", "tiny", "merge", nprocs=4, page_size=1024),
         Cell("is", "tiny", "base", nprocs=4, page_size=1024,
              protocol="hlrc", data_plane="onesided"))),
)}

#: The workloads BENCHMARK.json names, in its order.
GATED = ("stencil-base", "finegrain-base", "hinted-planes",
         "perturbed-sweep")


# ----------------------------------------------------------------------
# Set-up: everything a cell needs before it simulates.
# ----------------------------------------------------------------------

@dataclass
class Prepared:
    cell: Cell
    program: object
    system: TmSystem
    reference: Dict[str, np.ndarray]


def reference_arrays(cell: Cell) -> Dict[str, np.ndarray]:
    """The numpy reference the cell's result is verified against."""
    return get_app(cell.app).reference(cell.params())


def prepare(cell: Cell, spans: Optional[SpanLog] = None,
            profile: Optional[WallProfiler] = None) -> Prepared:
    """Build, compile, lay out and construct one cell; no simulation.

    The same steps ``harness.run_dsm`` performs, as separate public
    calls, so the traced pass can put a span around each."""
    spans = spans or SpanLog("setup")
    app = get_app(cell.app)
    with spans.span("apps.build_program", "apps", cell.label):
        program = app.build_program(cell.params(), cell.nprocs)
    opt = OPT_LEVELS[cell.opt]
    with spans.span("compiler.transform", "compiler", cell.label):
        if opt is not None:
            program = transform(program, opt)
    with spans.span("harness.layout_for", "memory", cell.label):
        layout = layout_for(program, page_size=cell.page_size)
    with spans.span("tm.TmSystem", "tm", cell.label):
        system = TmSystem(nprocs=cell.nprocs, layout=layout,
                          protocol=cell.protocol,
                          data_plane=cell.data_plane, profile=profile)
    with spans.span("apps.reference", "apps", cell.label):
        reference = reference_arrays(cell)
    return Prepared(cell, program, system, reference)


def sweep_module(kind: str):
    """``repro.harness.{chaos,recover,elastic}``, imported on first use
    so the fault-free workloads do not pay for the sweep stacks."""
    return importlib.import_module(f"repro.harness.{kind}")


def set_up(workload: Workload) -> List[Prepared]:
    """Everything ``workload`` needs before its first simulation."""
    for op in workload.ops:
        if isinstance(op, Case):
            sweep_module(op.kind)
    return [prepare(cell) for cell in workload.cells()]


# ----------------------------------------------------------------------
# Verification and deterministic counters.
# ----------------------------------------------------------------------

def verify(cell: Cell, arrays: Dict[str, np.ndarray],
           reference: Dict[str, np.ndarray]) -> Optional[str]:
    """Failure description, or None when every checked array agrees."""
    for name in get_app(cell.app).check_arrays:
        got = arrays.get(name)
        if got is None:
            return f"{cell.label}: array {name!r} missing"
        if not np.allclose(got, reference[name], rtol=1e-9, atol=1e-12):
            return f"{cell.label}: array {name!r} diverges from the " \
                   f"numpy reference"
    return None


_TM_COUNTS = ("twins_created", "diffs_created", "diffs_applied",
              "diff_bytes_applied", "page_fetches", "home_flushes",
              "onesided_reads", "onesided_writes",
              "onesided_lock_retries")
_TM_TIMES = ("t_compute", "t_protect", "t_twin", "t_diff",
             "t_barrier_wait", "t_lock_wait", "t_fetch_wait")


def cell_counters(cell: Cell, time_us: float, stats, net) -> Dict:
    """Every function-of-the-simulation-alone number of one cell,
    keyed by the per-layer metric it contributes to (``_``-prefixed
    keys are ratio terms)."""
    out = {
        "sim_time_us": time_us,
        "net.messages": net.messages, "net.bytes": net.bytes,
        "net.onesided_ops": net.onesided_ops,
        "net.onesided_batches": net.onesided_batches,
        "net.onesided_bytes": net.onesided_bytes,
        "_cas_ops": net.onesided_by_op.get("cas", 0),
        "_cas_failures": net.onesided_cas_failures,
        "tm.segv": stats.segv,
        "_onesided_fallbacks": stats.onesided_fallbacks,
        "_onesided_lock_acquires":
            stats.lock_acquires if cell.data_plane == "onesided" else 0,
        "rt.validates": stats.validates, "rt.pushes": stats.pushes,
    }
    for name in _TM_COUNTS:
        out[f"tm.{name}"] = getattr(stats, name)
    for name in _TM_TIMES:
        out[f"tm.{name}_us"] = getattr(stats, name)
    return out


_CASE_COUNTS = {
    "chaos": {"net.messages": "messages",
              "net.retransmits": "retransmits", "net.acks": "acks",
              "net.dup_frames_discarded": "dup_frames_discarded",
              "net.faults_injected": "faults_injected"},
    "recover": {"recovery.log_messages": "log_messages",
                "recovery.state_bytes": "state_bytes",
                "recovery.recovery_us": "recovery_us"},
    "elastic": {"membership.handoff_messages": "handoff_messages",
                "membership.handoff_bytes": "handoff_bytes",
                "membership.beats": "beats",
                "membership.detect_us": "detect_us"},
}


def case_counters(case: Case, result) -> Dict:
    out = {"sim_time_us": result.time}
    for metric, attr in _CASE_COUNTS[case.kind].items():
        out[metric] = getattr(result, attr)
    return out


# ----------------------------------------------------------------------
# Passes.
# ----------------------------------------------------------------------

@dataclass
class OpResult:
    label: str
    wall_s: float
    counters: Dict
    failure: Optional[str] = None
    telemetry_events: int = 0


@dataclass
class PassResult:
    ops: List[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def failures(self) -> List[str]:
        return [op.failure for op in self.ops if op.failure]

    def fingerprint(self) -> List[Tuple[str, Dict]]:
        """What must be identical across passes of one process."""
        return [(op.label, op.counters) for op in self.ops]

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for op in self.ops:
            for key, val in op.counters.items():
                out[key] = out.get(key, 0) + val
        return out


def run_cell(cell: Cell, reference, telemetry: bool = False) -> OpResult:
    """One cell through ``harness.run``; verification is untimed."""
    spec = cell.spec()
    spec.telemetry = telemetry
    t0 = perf_counter()
    try:
        out = run(spec)
    except Exception as exc:    # an operation that raises has failed
        return OpResult(cell.label, perf_counter() - t0, {},
                        f"{cell.label}: {type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    return OpResult(
        cell.label, wall,
        cell_counters(cell, out.time, out.stats, out.net),
        verify(cell, out.arrays, reference),
        telemetry_events=len(out.telemetry.bus) if telemetry else 0)


def run_case(case: Case, seed: int) -> OpResult:
    """One sweep case through its harness ``run_case``."""
    mod = sweep_module(case.kind)
    kw = {"protocol": case.protocol}
    if case.kind != "recover":
        kw["data_plane"] = case.data_plane
    if case.kind == "chaos":
        kw["seed"] = seed
    t0 = perf_counter()
    try:
        result = mod.run_case(case.app, case.opt, case.schedule, **kw)
    except Exception as exc:
        return OpResult(case.label, perf_counter() - t0, {},
                        f"{case.label}: {type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    failure = None
    if not result.ok:
        detail = {k: v for k, v in result.as_dict().items()
                  if k in ("identical", "realized", "violations",
                           "findings", "error") and v not in ([], None)}
        failure = f"{case.label}: case not ok: {detail}"
    return OpResult(case.label, wall, case_counters(case, result),
                    failure)


def run_pass(workload: Workload, references: Dict[Cell, Dict],
             seed: int, telemetry: bool = False,
             spans: Optional[SpanLog] = None) -> PassResult:
    """Execute every cell of ``workload`` once, in order."""
    spans = spans or SpanLog(workload.name)
    res = PassResult()
    with spans.span("pass", "harness"):
        for op in workload.ops:
            if isinstance(op, Cell):
                with spans.span("harness.run", "harness", op.label):
                    res.ops.append(run_cell(op, references[op],
                                            telemetry))
            else:
                with spans.span(f"harness.{op.kind}.run_case",
                                "harness", op.label):
                    res.ops.append(run_case(op, seed))
    return res


# ----------------------------------------------------------------------
# The traced pass: harness.run decomposed into its public steps.
# ----------------------------------------------------------------------

@dataclass
class TracedPass:
    result: PassResult
    host_s: Dict[str, float]        # wall-profiler buckets, summed
    run_span_s: float               # sum of the TmSystem.run spans
    events: int
    stmts: int
    #: Per cell: profiler bucket seconds (for share predictions).
    per_cell: Dict[str, Dict[str, float]]


def traced_cell(cell: Cell, spans: SpanLog, expect: Dict) \
        -> Tuple[OpResult, WallProfiler, float]:
    """Run one cell step by step under the wall-clock observatory.

    ``expect`` is the same cell's counters from an untraced
    ``harness.run``: the decomposition must reproduce its simulated
    time, messages and bytes exactly, or the cell fails."""
    prof = WallProfiler()
    t0 = perf_counter()
    with spans.span("cell", "harness", cell.label):
        prep = prepare(cell, spans, prof)
        program = prep.program

        def main(node):
            Interpreter(program, DsmRuntime(node, program)).run()

        with spans.span("TmSystem.run", "tm", cell.label) as run_span:
            result = prep.system.run(main)
        spans.add_aggregates(
            run_span, "observe",
            {f"host_s.{k}": v for k, v in prof.attribution().items()})
        with spans.span("TmSystem.snapshot", "tm", cell.label):
            arrays = prep.system.snapshot()
        with spans.span("verify", "harness", cell.label):
            failure = verify(cell, arrays, prep.reference)
    wall = perf_counter() - t0
    counters = cell_counters(cell, result.time, result.stats, result.net)
    for key in ("sim_time_us", "net.messages", "net.bytes"):
        if failure is None and counters[key] != expect.get(key):
            failure = (f"{cell.label}: traced decomposition {key}="
                       f"{counters[key]!r} != harness.run "
                       f"{expect.get(key)!r}")
    return (OpResult(cell.label, wall, counters, failure), prof,
            run_span["t1"] - run_span["t0"])


def traced_pass(workload: Workload, expect: PassResult, seed: int,
                spans: SpanLog) -> TracedPass:
    """One traced pass; sweep cases get one span each and no profile
    (``run_case`` owns the run, so there is nothing public to attach
    the observatory to)."""
    if not workload.fault_free:
        return TracedPass(run_pass(workload, {}, seed, spans=spans),
                          {}, 0.0, 0, 0, {})
    out = TracedPass(PassResult(), {}, 0.0, 0, 0, {})
    expected = dict(expect.fingerprint())
    with spans.span("pass", "harness"):
        for cell in workload.ops:
            op, prof, run_s = traced_cell(cell, spans,
                                          expected[cell.label])
            out.result.ops.append(op)
            att = prof.attribution()
            out.per_cell[cell.label] = att
            for bucket, sec in att.items():
                out.host_s[bucket] = out.host_s.get(bucket, 0.0) + sec
            out.run_span_s += run_s
            out.events += prof.n_events
            out.stmts += prof.n_stmts
    return out
