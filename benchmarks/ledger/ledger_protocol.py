"""Measurement protocol of the ledger: pin, calibrate, summarise, span.

Nothing here imports ``repro``: :func:`pin` must run before the
simulator (and its worker threads) exist, and ``compare.py`` reads the
metric tables without needing the source tree.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

#: Bumped only if the calibration loop below ever changes; results with
#: different versions do not compare on ``wall_norm``.
CALIBRATION_VERSION = 1
#: Calibration spread (max-min over median) above which a run is noisy.
NOISY_SPREAD = 0.15

#: End-to-end metrics: name -> (unit, better).  Bounds live in
#: BENCHMARK.json, which the driver and compare.py both read.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "wall_norm": ("x", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_time_us": ("sim_us", "lower"),
}
#: Functions of the simulation alone: compared with ``==``.
EXACT_END_TO_END = ("sim_time_us",)


def _rows(unit: str, better: str, kind: str, *names: str):
    return {name: (unit, better, kind) for name in names}


_DIFF_PATTERNS = ("sparse", "strided", "block", "full")

#: Per-layer metrics: name -> (unit, better, kind).  ``count`` metrics
#: are functions of the simulation alone (read from a timed pass,
#: compared with ``==``); ``micro`` metrics time one layer's public
#: calls with no application in the loop; ``traced`` metrics come from
#: the extra passes of a ``--trace 1`` run.  A value of 0 on a
#: workload that cannot produce the metric means "not applicable".
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # sim
    **_rows("us", "lower", "micro", "sim.switch_us",
            "sim.ring_switch_us.p8", "sim.advance_fast_us",
            "sim.event_us"),
    **_rows("count", "lower", "traced", "sim.events"),
    **_rows("x", "lower", "traced", "sim.unpinned_slowdown_x"),
    # net
    **_rows("us", "lower", "micro", "net.roundtrip_us",
            "net.transport_roundtrip_us", "net.onesided_op_us.b1",
            "net.onesided_op_us.b8", "net.onesided_op_us.b32"),
    **_rows("count", "lower", "count", "net.messages",
            "net.onesided_ops", "net.onesided_batches",
            "net.retransmits", "net.acks", "net.dup_frames_discarded",
            "net.faults_injected"),
    **_rows("B", "lower", "count", "net.bytes", "net.onesided_bytes"),
    **_rows("ratio", "higher", "count", "net.cas_success_ratio"),
    # memory
    **_rows("us", "lower", "micro", "memory.pages_of_us.row",
            "memory.pages_of_us.col", "memory.section_view_us"),
    # tm
    **_rows("us", "lower", "micro", "tm.read_hit_us", "tm.write_hit_us",
            *(f"tm.make_diff_us.{p}" for p in _DIFF_PATTERNS),
            *(f"tm.apply_diff_us.{p}" for p in _DIFF_PATTERNS),
            "tm.fault_us.mw-lrc", "tm.fault_us.hlrc",
            "tm.fault_us.hlrc-onesided", "tm.barrier_us.p8",
            "tm.lock_us.twosided", "tm.lock_us.onesided"),
    **_rows("count", "lower", "count", "tm.segv", "tm.twins_created",
            "tm.diffs_created", "tm.diffs_applied", "tm.page_fetches",
            "tm.home_flushes", "tm.onesided_reads",
            "tm.onesided_writes", "tm.onesided_lock_retries"),
    **_rows("B", "lower", "count", "tm.diff_bytes_applied"),
    **_rows("ratio", "higher", "count", "tm.onesided_hit_ratio"),
    **_rows("ratio", "lower", "count", "tm.lock_retries_per_acquire"),
    **_rows("sim_us", "lower", "count", "tm.t_compute_us",
            "tm.t_protect_us", "tm.t_twin_us", "tm.t_diff_us",
            "tm.t_barrier_wait_us", "tm.t_lock_wait_us",
            "tm.t_fetch_wait_us"),
    # rt
    **_rows("us", "lower", "micro", "rt.validate_us"),
    **_rows("count", "lower", "count", "rt.validates", "rt.pushes"),
    # interp
    **_rows("s", "lower", "micro", "interp.seq_s"),
    **_rows("count", "lower", "traced", "interp.stmts"),
    **_rows("us", "lower", "traced", "interp.stmt_us"),
    # compiler, apps
    **_rows("ms", "lower", "micro", "compiler.transform_ms",
            "apps.build_ms", "apps.reference_ms"),
    # telemetry, observe, inspect, sanitizer
    **_rows("ns", "lower", "micro", "telemetry.emit_on_ns",
            "telemetry.emit_off_ns", "telemetry.access_emit_ns"),
    **_rows("%", "lower", "traced", "telemetry.overhead_pct",
            "observe.profile_overhead_pct"),
    **_rows("count", "lower", "traced", "telemetry.events"),
    **_rows("ms", "lower", "micro", "inspect.build_reconcile_ms"),
    **_rows("1/s", "higher", "micro", "sanitizer.events_per_s"),
    # recovery, membership
    **_rows("count", "lower", "count", "recovery.log_messages",
            "membership.handoff_messages", "membership.beats"),
    **_rows("B", "lower", "count", "recovery.state_bytes",
            "membership.handoff_bytes"),
    **_rows("sim_us", "lower", "count", "recovery.recovery_us",
            "membership.detect_us"),
    # host seconds per wall-profiler bucket (traced pass)
    **_rows("s", "lower", "traced", "host_s.compute", "host_s.engine",
            "host_s.net", "host_s.net.rdma", "host_s.tm.access",
            "host_s.tm.diff", "host_s.tm.serve"),
    # harness: set-up shares and the sanity of everything else
    **_rows("s", "lower", "traced", "harness.import_s",
            "harness.warmup_excess_s", "harness.calibration_s"),
    **_rows("ratio", "lower", "traced", "harness.calibration_spread"),
}


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def use_source_tree() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the tree it sits in, never an installed
    copy; without the tree there is nothing to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: {src}/repro not found: the benchmark "
                         f"runs from a checkout of the repository")
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# Pin.
# ----------------------------------------------------------------------

def pin() -> bool:
    """Restrict this process (and its future threads) to one CPU.

    The simulator runs exactly one simulated processor at a time, so
    one CPU is its natural footprint; unpinned, the number measures the
    kernel's thread placement.  The highest allowed CPU is chosen
    because housekeeping work gravitates to CPU 0.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        return False
    return True


@contextmanager
def unpinned(allowed) -> Iterator[None]:
    """Temporarily give the process back every CPU in ``allowed``."""
    try:
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)


# ----------------------------------------------------------------------
# Calibrate.  Version 1: never edit, bump CALIBRATION_VERSION instead.
# ----------------------------------------------------------------------

_CAL_A = np.arange(4096, dtype=np.uint8)
_CAL_B = _CAL_A.copy()
_CAL_B[4095] ^= 1


def _calibration_loop() -> float:
    """Host seconds for a fixed pure-Python + small-numpy loop (~15 ms).

    The two halves mirror what the simulator spends its time on:
    bytecode dispatch and short numpy compare/any calls on page-sized
    buffers."""
    t0 = perf_counter()
    acc = 0
    for i in range(80_000):
        acc = (acc + i * i) & 0xFFFF
    hits = 0
    a, b = _CAL_A, _CAL_B
    for _ in range(4_000):
        if (a != b).any():
            hits += 1
    dt = perf_counter() - t0
    if acc != 48832 or hits != 4_000:
        raise RuntimeError("calibration loop computed a wrong result")
    return dt


def calibrate() -> float:
    """Best of five runs of the calibration loop (~0.08 s in all).

    Best-of, not mean: a hypervisor can only take time away, so the
    minimum is the consistent estimate of the undisturbed speed.
    ``wall_norm`` divides by the best calibration of the whole run."""
    return min(_calibration_loop() for _ in range(5))


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------

def timing(best: float, samples: Sequence[float]) -> dict:
    """One timing's report: ``value`` is the best estimate, with the
    median, quartiles and count of the samples behind it."""
    vals = [float(v) for v in samples]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"value": best, "median": statistics.median(vals),
            "q1": q1, "q3": q3, "n": len(vals)}


def spread(values: Sequence[float]) -> float:
    """(max - min) / median."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


# ----------------------------------------------------------------------
# Spans (kept in memory; written once at exit).
# ----------------------------------------------------------------------

class SpanLog:
    """Spans around the public calls the benchmark makes.

    Each span records ``id``, ``parent``, ``name``, ``layer``,
    ``workload``, ``cell``, ``t0`` and ``t1`` (host seconds since the
    log was created).  Self time is duration minus children.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._epoch = perf_counter()

    @contextmanager
    def span(self, name: str, layer: str,
             cell: Optional[str] = None) -> Iterator[dict]:
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "layer": layer, "workload": self.workload,
               "cell": cell, "t0": perf_counter() - self._epoch,
               "t1": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["t1"] = perf_counter() - self._epoch

    def add_aggregates(self, parent: dict, layer: str,
                       totals: Dict[str, float]) -> None:
        """Attach per-bucket totals as children of ``parent``.

        The wall profiler reports a total per bucket, not intervals, so
        the children are laid end to end from the parent's start and
        flagged ``aggregate``; durations (and so the parent's self
        time) are exact, positions are not."""
        t = parent["t0"]
        for name in sorted(totals):
            self.spans.append({
                "id": len(self.spans), "parent": parent["id"],
                "name": name, "layer": layer,
                "workload": self.workload, "cell": parent["cell"],
                "t0": t, "t1": t + totals[name], "aggregate": True})
            t += totals[name]

    def self_times(self) -> Dict[int, float]:
        out = {s["id"]: s["t1"] - s["t0"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["t1"] - s["t0"]
        return out

    def write(self) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.workload}.json"
        selfs = self.self_times()
        with open(path, "w") as fh:
            json.dump([dict(s, self_s=selfs[s["id"]])
                       for s in self.spans], fh, indent=1)
        return path
