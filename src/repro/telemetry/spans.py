"""Span-based phase profiling.

A :class:`Span` is a named time interval on one simulated processor,
tagged with the barrier epoch in which it started.  The instrumented
runtime emits:

* ``compute``       — application computation charged by the interpreter;
* ``wait.barrier``  — blocked between barrier arrival and departure;
* ``wait.lock``     — blocked acquiring a lock;
* ``wait.fetch``    — blocked on diff or page responses;
* ``wait.flush``    — hlrc: a release blocked on flush acks;
* ``wait.push``     — blocked receiving Push data;
* ``cpu.protect`` / ``cpu.twin`` / ``cpu.diff`` — protocol CPU bursts
  (placed at the simulated time the cost is charged; bursts deferred by
  an atomic protocol section keep their emission timestamp).

``repro.tm.stats.WAIT_FIELDS`` names the ``TmStats`` field each wait
span feeds.  Aggregating spans by ``(epoch, name)`` yields the paper's
per-phase execution-time breakdown, per barrier epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One named interval on one processor's track."""

    pid: int
    name: str
    t0: float
    t1: float
    epoch: int = 0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"pid": self.pid, "name": self.name, "t0": self.t0,
                "t1": self.t1, "epoch": self.epoch}


class SpanLog:
    """In-memory span store with per-phase aggregation."""

    __slots__ = ("enabled", "spans")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []

    def record(self, pid: int, name: str, t0: float, t1: float,
               epoch: int = 0) -> None:
        if not self.enabled:
            return
        self.spans.append(Span(pid=pid, name=name, t0=t0, t1=t1,
                               epoch=epoch))

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------

    def by_phase(self, pid: Optional[int] = None) -> Dict[str, float]:
        """Total duration per span name (optionally one pid only)."""
        out: Dict[str, float] = {}
        for s in self.spans:
            if pid is not None and s.pid != pid:
                continue
            out[s.name] = out.get(s.name, 0.0) + s.dur
        return out

    def by_epoch(self, pid: Optional[int] = None) \
            -> Dict[Tuple[int, str], float]:
        """Total duration per (barrier epoch, span name)."""
        out: Dict[Tuple[int, str], float] = {}
        for s in self.spans:
            if pid is not None and s.pid != pid:
                continue
            key = (s.epoch, s.name)
            out[key] = out.get(key, 0.0) + s.dur
        return out
