"""Wall-clock engine profiler: perf-counter scopes, throughput counters.

A :class:`WallProfiler` is bound to one simulation engine for one run
(``RunSpec(profile=True)`` or an explicit instance).  It accounts three
kinds of host time:

* **Action time** — the engine's dispatch loop times every event it
  pops and classifies it by the scheduling subsystem (message
  deliveries, transport timers, process wake-ups, ...).  Classification
  happens only while profiling and is cached per callable qualname.
* **Process slices** — a process thread reports when it resumes
  simulated code and when it next blocks; that interval is ``compute``.
  The hand-off between threads lies outside both, so it falls to
  ``engine`` with the rest of the loop's own cost.
* **Leaf scopes** — short, *guaranteed non-blocking* operations timed
  at their call site (shared-array page checks, diff encode/apply,
  interrupt-handler servicing).  Leaf time is subtracted from the
  enclosing action or slice so every host second is attributed exactly
  once.

Leaf scopes must never wrap a call that can block in the engine (a
blocked process hands the host thread to other processes, which would
pollute the measurement).  The shared-array scope therefore discards
its sample when the access faulted — fault servicing is attributed to
the protocol/network buckets by the dispatch loop instead.

Instrumented code holds a reference that is ``None`` when profiling is
off, so an unprofiled run pays one attribute test per potential scope —
the same overhead discipline as the simulated-time telemetry.  The
profiler never writes to any simulated state, which keeps observed runs
bit-identical to unobserved ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

#: Dispatch-loop buckets by qualname fragment, checked in order:
#: substring matches, so lambdas defined inside a subsystem classify to
#: that subsystem.  Everything else (the process wake-ups among it: they
#: only name the process to resume) is the engine's own cost.
_FRAGMENTS = (
    ("ReliableTransport", "net"),
    ("Transport", "net"),
    ("Network", "net"),
    ("_deliver", "net"),
    ("Injector", "faults"),
    ("Absence", "absence"),
)


def _classify(qualname: str) -> str:
    for fragment, name in _FRAGMENTS:
        if fragment in qualname:
            return name
    return "engine"


class WallProfiler:
    """Per-run wall-clock accounting for the simulation stack."""

    __slots__ = ("wall", "leaf_s", "run_s", "n_events", "n_accesses",
                 "n_access_timed", "n_stmts", "n_messages", "_cache",
                 "_slice", "engine")

    def __init__(self) -> None:
        #: Exclusive wall seconds per attribution bucket.
        self.wall: Dict[str, float] = {}
        #: Total leaf-scope seconds (used by the dispatch loop to make
        #: action attribution exclusive).
        self.leaf_s = 0.0
        #: Wall seconds of the whole engine run (dispatch loop).
        self.run_s = 0.0
        #: Engine events dispatched.
        self.n_events = 0
        #: Shared-array accesses checked (section-granular).
        self.n_accesses = 0
        #: Accesses whose page check was timed (fault-free fast path).
        self.n_access_timed = 0
        #: Interpreter statements executed.
        self.n_stmts = 0
        #: Messages delivered while profiled.
        self.n_messages = 0
        self._cache: Dict[str, str] = {}
        #: Host clock minus ``leaf_s`` when the running slice began.
        self._slice = 0.0
        self.engine = None

    # ------------------------------------------------------------------
    # Binding.
    # ------------------------------------------------------------------

    def bind_engine(self, engine) -> "WallProfiler":
        """Attach to a simulation engine (its run loop then reports)."""
        engine.profiler = self
        self.engine = engine
        return self

    # ------------------------------------------------------------------
    # Hot-path accounting (dispatch loop and leaf scopes).
    # ------------------------------------------------------------------

    def timed(self, action) -> None:
        """Dispatch-loop hook: call one action, counted, and timed
        exclusive of the leaf scopes inside it."""
        start = perf_counter() - self.leaf_s
        action()
        self.account(action, perf_counter() - self.leaf_s - start)
        self.n_events += 1

    def account(self, action, dt: float) -> None:
        """Attribute one dispatched action's exclusive wall time."""
        qn = getattr(action, "__qualname__", None) \
            or type(action).__name__
        bucket = self._cache.get(qn)
        if bucket is None:
            bucket = self._cache[qn] = _classify(qn)
        self.wall[bucket] = self.wall.get(bucket, 0.0) + dt

    def resume(self) -> None:
        """A process thread starts running simulated code."""
        self._slice = perf_counter() - self.leaf_s

    def block(self) -> None:
        """... and stops: the slice, exclusive of its leaf scopes, is
        ``compute``."""
        self.wall["compute"] = self.wall.get("compute", 0.0) \
            + perf_counter() - self.leaf_s - self._slice

    def leaf(self, bucket: str, dt: float) -> None:
        """Record one non-blocking leaf scope."""
        self.wall[bucket] = self.wall.get(bucket, 0.0) + dt
        self.leaf_s += dt

    def access_leaf(self, dt: Optional[float]) -> None:
        """One shared-array access; ``dt`` is None when it faulted
        (the blocked time belongs to the protocol buckets)."""
        self.n_accesses += 1
        if dt is not None:
            self.n_access_timed += 1
            self.wall["tm.access"] = \
                self.wall.get("tm.access", 0.0) + dt
            self.leaf_s += dt

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def attribution(self) -> Dict[str, float]:
        """Wall seconds per bucket, with loop overhead under "engine".

        The dispatch loop's own cost (heap pops, classification) is the
        run total minus everything attributed; it lands in "engine".
        """
        out = dict(self.wall)
        accounted = sum(out.values())
        slack = self.run_s - accounted
        if slack > 0:
            out["engine"] = out.get("engine", 0.0) + slack
        return out

    def events_per_sec(self) -> float:
        return self.n_events / self.run_s if self.run_s > 0 else 0.0

    def accesses_per_sec(self) -> float:
        return self.n_accesses / self.run_s if self.run_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (seconds rounded to microseconds)."""
        att = self.attribution()
        total = sum(att.values()) or 1.0
        return {
            "wall_s": round(self.run_s, 6),
            "events": self.n_events,
            "events_per_sec": round(self.events_per_sec(), 1),
            "accesses": self.n_accesses,
            "accesses_per_sec": round(self.accesses_per_sec(), 1),
            "stmts": self.n_stmts,
            "messages": self.n_messages,
            "attribution_s": {k: round(v, 6)
                              for k, v in sorted(att.items())},
            "attribution_pct": {k: round(100.0 * v / total, 2)
                                for k, v in sorted(att.items())},
        }

    def render(self) -> str:
        from repro.harness.report import render_table
        att = self.attribution()
        total = sum(att.values()) or 1.0
        rows = [[name, round(sec * 1e3, 3),
                 round(100.0 * sec / total, 1)]
                for name, sec in
                sorted(att.items(), key=lambda kv: -kv[1])]
        head = render_table(
            "Wall-clock attribution",
            ["subsystem", "wall ms", "%"], rows,
            note=f"{self.n_events} events "
                 f"({self.events_per_sec():,.0f}/s), "
                 f"{self.n_accesses} accesses "
                 f"({self.accesses_per_sec():,.0f}/s), "
                 f"{self.n_stmts} interpreted statements")
        return head
