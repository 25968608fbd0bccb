"""Lock and barrier contention profiles from telemetry streams.

Wait time is recorded by the protocol as ``wait.lock`` / ``wait.barrier``
spans, but a span does not name the lock it waited for.  The profiler
re-attaches each ``wait.lock`` span to the ``tm.lock_acquire`` event that
immediately precedes it on the same processor (the acquire event is
emitted at operation entry, before the processor blocks), yielding
per-lock-id wait attributions.  Barrier waits already carry the barrier
epoch on the span, so per-epoch arrival-imbalance profiles fall out
directly: in a barrier round the *straggler* is the processor that
waited least — everyone else was blocked on it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class LockProfile:
    """Contention summary for one lock id."""

    lid: int
    acquires: int = 0
    grants: int = 0                 # remote hand-offs (token moved)
    waiters: Set[int] = field(default_factory=set)
    waits: List[Tuple[int, float, float]] = field(default_factory=list)

    @property
    def total_wait(self) -> float:
        return sum(t1 - t0 for _, t0, t1 in self.waits)

    @property
    def max_wait(self) -> float:
        return max((t1 - t0 for _, t0, t1 in self.waits), default=0.0)

    @property
    def mean_wait(self) -> float:
        return self.total_wait / len(self.waits) if self.waits else 0.0

    def wait_by_pid(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for pid, t0, t1 in self.waits:
            out[pid] = out.get(pid, 0.0) + (t1 - t0)
        return out

    def as_dict(self) -> dict:
        return {"lid": self.lid, "acquires": self.acquires,
                "grants": self.grants, "waiters": sorted(self.waiters),
                "total_wait_us": self.total_wait,
                "max_wait_us": self.max_wait,
                "mean_wait_us": self.mean_wait,
                "wait_by_pid": self.wait_by_pid()}


@dataclass
class BarrierEpoch:
    """One barrier round: per-processor wait between arrival and departure."""

    epoch: int
    wait_by_pid: Dict[int, float] = field(default_factory=dict)

    @property
    def total_wait(self) -> float:
        return sum(self.wait_by_pid.values())

    @property
    def spread(self) -> float:
        """Arrival imbalance: longest minus shortest wait this round."""
        if not self.wait_by_pid:
            return 0.0
        waits = self.wait_by_pid.values()
        return max(waits) - min(waits)

    @property
    def straggler(self) -> Optional[int]:
        """The processor the round waited on (least time blocked)."""
        if not self.wait_by_pid:
            return None
        return min(self.wait_by_pid, key=lambda p: (self.wait_by_pid[p], p))

    def as_dict(self) -> dict:
        return {"epoch": self.epoch, "wait_by_pid": dict(self.wait_by_pid),
                "total_wait_us": self.total_wait,
                "spread_us": self.spread, "straggler": self.straggler}


class ContentionProfile:
    """Per-lock and per-barrier-epoch wait-time attribution."""

    def __init__(self) -> None:
        self.locks: Dict[int, LockProfile] = {}
        self.barriers: Dict[int, BarrierEpoch] = {}
        #: ``wait.lock`` spans with no preceding acquire event (should
        #: never happen on an instrumented run; kept for diagnosis).
        self.unattributed: List[Tuple[int, float, float]] = []

    # ------------------------------------------------------------------

    @classmethod
    def from_telemetry(cls, tel) -> "ContentionProfile":
        prof = cls()
        # Per-pid, time-ordered lock_acquire events (emission order is
        # already time-ordered per pid).
        events: Dict[int, List[Tuple[float, int]]] = {}
        for ev in tel.bus.events:
            if ev.kind == "tm.lock_acquire":
                lid = (ev.args or {}).get("lid")
                events.setdefault(ev.pid, []).append((ev.ts, lid))
                prof._lock(lid).acquires += 1
                prof._lock(lid).waiters.add(ev.pid)
            elif ev.kind == "tm.lock_grant":
                lid = (ev.args or {}).get("lid")
                prof._lock(lid).grants += 1
        # Each pid's (times, lids), built once for every wait to bisect.
        acquires = {pid: tuple(zip(*sorted(evs, key=lambda e: e[0])))
                    for pid, evs in events.items()}

        for span in tel.spans.spans:
            if span.name == "wait.lock":
                lid = _match_lock(acquires.get(span.pid), span.t0)
                if lid is None:
                    prof.unattributed.append((span.pid, span.t0, span.t1))
                else:
                    prof._lock(lid).waits.append(
                        (span.pid, span.t0, span.t1))
            elif span.name == "wait.barrier":
                ep = prof.barriers.get(span.epoch)
                if ep is None:
                    ep = prof.barriers[span.epoch] = BarrierEpoch(span.epoch)
                ep.wait_by_pid[span.pid] = (
                    ep.wait_by_pid.get(span.pid, 0.0) + span.dur)
        return prof

    def _lock(self, lid: int) -> LockProfile:
        prof = self.locks.get(lid)
        if prof is None:
            prof = self.locks[lid] = LockProfile(lid)
        return prof

    # ------------------------------------------------------------------
    # Analyses.
    # ------------------------------------------------------------------

    def hot_locks(self, n: int = 10) -> List[LockProfile]:
        return sorted(self.locks.values(),
                      key=lambda l: (-l.total_wait, -l.acquires,
                                     l.lid))[:n]

    def worst_epochs(self, n: int = 10) -> List[BarrierEpoch]:
        return sorted(self.barriers.values(),
                      key=lambda b: (-b.spread, b.epoch))[:n]

    def epochs(self) -> List[BarrierEpoch]:
        return [self.barriers[e] for e in sorted(self.barriers)]

    def total_lock_wait(self) -> float:
        return (sum(l.total_wait for l in self.locks.values())
                + sum(t1 - t0 for _, t0, t1 in self.unattributed))

    def total_barrier_wait(self) -> float:
        return sum(b.total_wait for b in self.barriers.values())

    def as_dict(self, top: int = 10) -> dict:
        return {
            "total_lock_wait_us": self.total_lock_wait(),
            "total_barrier_wait_us": self.total_barrier_wait(),
            "locks": [l.as_dict() for l in self.hot_locks(top)],
            "barrier_epochs": [b.as_dict() for b in self.epochs()],
            "unattributed_lock_waits": len(self.unattributed),
        }


def _match_lock(acquires, t0: float) -> Optional[int]:
    """Lock id of the latest acquire at or before ``t0`` on this pid."""
    if acquires is None:
        return None
    times, lids = acquires
    i = bisect_right(times, t0) - 1
    return lids[i] if i >= 0 else None
