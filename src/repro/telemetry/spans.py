"""Span-based phase profiling.

A :class:`Span` is a named time interval on one simulated processor,
tagged with the barrier epoch in which it started.  Two kinds exist:

* **CPU spans**: the intervals the engine assigned booked CPU charges
  (:meth:`repro.sim.engine.Process.charge`; the uniprocessor runtime
  books ``compute`` on its own clock); back-to-back charges of one name
  are one span (:meth:`SpanLog.burst`).  A processor is one CPU, so
  two CPU spans of one processor never overlap
  (:meth:`repro.inspect.report.InspectReport.reconcile` checks it).
* **Wait spans** (``wait.*``): a processor blocked from one instant to
  another; handlers may steal CPU inside them.

:data:`CATEGORY` names every span and its critical-path category;
``repro.tm.stats.WAIT_FIELDS`` and ``CPU_FIELDS`` name the ``TmStats``
field a span feeds.  Aggregating spans by ``(epoch, name)`` yields the
paper's per-phase execution-time breakdown, per barrier epoch.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple


#: Every span name the runtime records, with its critical-path category
#: (:mod:`repro.inspect.critpath`): the map is total, so time on the
#: path that no span covers is an idle gap.
CATEGORY: Dict[str, str] = {
    # Application compute charged by the interpreter (or a hand-coded
    # message-passing main).
    "compute": "compute",
    # Protocol CPU.
    "cpu.fault": "protocol",        # the SIGSEGV of a page fault
    "cpu.protect": "protocol",      # an mprotect call
    "cpu.twin": "protocol",         # copying a page into its twin
    "cpu.diff": "protocol",         # creating or applying a diff
    "cpu.copy": "protocol",         # a whole page copied out to serve it
    "cpu.request": "protocol",      # servicing a request (diff, page...)
    "cpu.lock": "protocol",         # lock manager or token service
    "cpu.lock_local": "protocol",   # a lock taken without a message
    "cpu.barrier": "protocol",      # the master taking a barrier arrival
    "cpu.merge": "protocol",        # a sync+data merge's page-list scan
    "cpu.heartbeat": "protocol",    # a membership heartbeat received
    # Message CPU: the software overheads of communication.
    "net.send": "comm",
    "net.recv": "comm",
    "net.interrupt": "comm",        # the SIGIO that runs a handler
    "net.ack": "comm",              # a reliable-transport ack
    "rdma.post": "comm",            # a one-sided doorbell
    "rdma.poll": "comm",            # reaping a one-sided completion
    # A crashed, drained or not yet joined processor's dark window.
    "away": "wait",
    # Waits.
    "wait.barrier": "wait",         # barrier arrival to departure
    "wait.lock": "wait",            # acquiring a lock
    "wait.fetch": "wait",           # diff or page responses
    "wait.flush": "wait",           # hlrc: a release's flush acks
    "wait.push": "wait",            # receiving Push data
}

#: The CPU span names: every name but the waits.
CPU_SPANS = frozenset(n for n in CATEGORY if not n.startswith("wait."))


class Span(NamedTuple):
    """One named interval on one processor's track (a tuple: a traced
    run makes one per burst of CPU, so it must be cheap to build)."""

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

    __slots__ = ("enabled", "spans", "_burst")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        #: Per processor, the index of its latest CPU span.
        self._burst: Dict[int, int] = {}

    def record(self, pid: int, name: str, t0: float, t1: float,
               epoch: int = 0) -> None:
        if not self.enabled:
            return
        self.spans.append(Span(pid, name, t0, t1, epoch))

    def burst(self, pid: int, name: str, t0: float, t1: float,
              epoch: int = 0) -> None:
        """Record a CPU span, or extend ``pid``'s latest one to ``t1``
        if that one has the same name and epoch and ends at ``t0``:
        back-to-back charges of one kind are one span."""
        if not self.enabled:
            return
        spans, i = self.spans, self._burst.get(pid)
        if i is not None:
            last = spans[i]
            if last.t1 == t0 and last.name == name and last.epoch == epoch:
                spans[i] = Span(pid, name, last.t0, t1, epoch)
                return
        self._burst[pid] = len(spans)
        spans.append(Span(pid, name, t0, t1, epoch))

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
