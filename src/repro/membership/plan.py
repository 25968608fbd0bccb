"""Declarative membership plans: joins, drains, silences, heartbeats.

A :class:`MembershipPlan` rides on :class:`repro.faults.FaultPlan` (its
``membership`` field) and describes how the processor set changes while
the computation runs:

* :class:`NodeJoin` — the node sleeps (NIC dark, no compute) until
  ``t``, then wakes, refreshes its coherence state from the surviving
  members, and participates normally.
* :class:`NodeDrain` — a graceful leave: at ``t`` the node flushes its
  open interval, hands its lock tokens, managed lock tails, retained
  intervals/diffs and (if it holds it) the barrier seat to a steward,
  then goes dark for ``away_us`` before rejoining.
* :class:`NodeSilence` — the node keeps computing but its NIC drops
  every frame for ``down_us``; this is what drives the failure detector
  (suspicion, then eviction, then re-admission once beats resume).

:class:`HeartbeatConfig` tunes the failure detector: every member beats
to its ring successor every ``period_us``; the successor suspects the
member after ``suspect_after_us`` without a beat and declares it
evicted after ``evict_after_us``.  A beat from a suspected or evicted
member re-admits it — false positives are survivable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import MembershipError


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detector tuning knobs (all times in simulated µs)."""

    #: Beat period: each member sends one beat per period to its ring
    #: successor ``(pid + 1) % nprocs``.
    period_us: float = 500.0
    #: Silence threshold before the monitor *suspects* its monitoree.
    suspect_after_us: float = 2000.0
    #: Silence threshold before the monitor declares an *eviction*.
    evict_after_us: float = 5000.0
    #: CPU charged to the sender per beat (beats are cheap datagrams,
    #: not full protocol messages — they bypass ``send_overhead``).
    beat_send_cost_us: float = 2.0
    #: CPU stolen from the receiver per beat handled.
    beat_handler_cost_us: float = 1.0
    #: Payload bytes per beat (header bytes are added by the network).
    beat_bytes: int = 8
    #: Hard horizon after which beat timers stop rescheduling, so a
    #: deadlocked run still terminates (with the engine's deadlock
    #: diagnostics) instead of beating forever.
    max_lifetime_us: float = 60_000_000.0

    def __post_init__(self):
        if self.period_us <= 0:
            raise MembershipError(
                f"heartbeat period must be positive, got {self.period_us}")
        if not (self.period_us < self.suspect_after_us
                < self.evict_after_us):
            raise MembershipError(
                "heartbeat thresholds must satisfy period < suspect_after "
                f"< evict_after; got period={self.period_us}, "
                f"suspect_after={self.suspect_after_us}, "
                f"evict_after={self.evict_after_us}")
        if self.max_lifetime_us <= 0:
            raise MembershipError(
                f"max_lifetime_us must be positive, got "
                f"{self.max_lifetime_us}")

    def as_dict(self) -> dict:
        return {"period_us": self.period_us,
                "suspect_after_us": self.suspect_after_us,
                "evict_after_us": self.evict_after_us,
                "beat_send_cost_us": self.beat_send_cost_us,
                "beat_handler_cost_us": self.beat_handler_cost_us,
                "beat_bytes": self.beat_bytes,
                "max_lifetime_us": self.max_lifetime_us}


@dataclass(frozen=True)
class NodeJoin:
    """Node ``pid`` is dormant (dark NIC, no compute) until ``t``."""

    pid: int
    t: float

    @property
    def t0(self) -> float:
        return 0.0

    @property
    def t1(self) -> float:
        return self.t

    def describe(self) -> str:
        return f"join P{self.pid} at t={self.t:.0f}us"


@dataclass(frozen=True)
class NodeDrain:
    """Node ``pid`` gracefully leaves at ``t`` for ``away_us``."""

    pid: int
    t: float
    away_us: float

    @property
    def t0(self) -> float:
        return self.t

    @property
    def t1(self) -> float:
        return self.t + self.away_us

    def describe(self) -> str:
        return (f"drain P{self.pid} at t={self.t:.0f}us "
                f"for {self.away_us:.0f}us")


@dataclass(frozen=True)
class NodeSilence:
    """Node ``pid``'s NIC drops every frame in [t, t+down_us)."""

    pid: int
    t: float
    down_us: float

    @property
    def t0(self) -> float:
        return self.t

    @property
    def t1(self) -> float:
        return self.t + self.down_us

    def describe(self) -> str:
        return (f"silence P{self.pid} at t={self.t:.0f}us "
                f"for {self.down_us:.0f}us")


@dataclass(frozen=True)
class MembershipPlan:
    """All membership events of one run, plus the detector tuning."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    joins: Tuple[NodeJoin, ...] = ()
    drains: Tuple[NodeDrain, ...] = ()
    silences: Tuple[NodeSilence, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "drains", tuple(self.drains))
        object.__setattr__(self, "silences", tuple(self.silences))
        events = self.events()
        pids = [e.pid for e in events]
        if len(pids) != len(set(pids)):
            dup = sorted({p for p in pids if pids.count(p) > 1})
            raise MembershipError(
                f"at most one membership event per node; duplicated "
                f"pid(s): {dup}")
        for ev in events:
            if ev.pid < 0:
                raise MembershipError(
                    f"membership event pid must be >= 0: {ev.describe()}")
            if ev.t < 0:
                raise MembershipError(
                    f"membership event time must be >= 0: {ev.describe()}")
        for ev in self.drains:
            if ev.away_us <= 0:
                raise MembershipError(
                    f"drain away_us must be positive: {ev.describe()}")
        for ev in self.silences:
            if ev.down_us <= 0:
                raise MembershipError(
                    f"silence down_us must be positive: {ev.describe()}")
        # Absence windows must be pairwise disjoint: the steward rule
        # ((pid + 1) % nprocs) and the barrier need the rest of the
        # cluster reachable while one member is away.
        wins = sorted(((e.t0, e.t1, e) for e in events),
                      key=lambda w: (w[0], w[1]))
        for (a0, a1, ea), (b0, b1, eb) in zip(wins, wins[1:]):
            if b0 < a1:
                raise MembershipError(
                    f"membership windows overlap: {ea.describe()} and "
                    f"{eb.describe()}")

    # ------------------------------------------------------------------

    def events(self) -> Tuple[object, ...]:
        """Every event, in (time, pid) order."""
        evs = list(self.joins) + list(self.drains) + list(self.silences)
        evs.sort(key=lambda e: (e.t, e.pid))
        return tuple(evs)

    def validate_for(self, nprocs: int, crashes=()) -> None:
        """Checks that need the cluster size / the crash schedule."""
        if nprocs < 2:
            raise MembershipError(
                f"membership changes need nprocs >= 2, got {nprocs}")
        crash_pids = {c.pid for c in crashes}
        for ev in self.events():
            if ev.pid >= nprocs:
                raise MembershipError(
                    f"membership event pid out of range for nprocs="
                    f"{nprocs}: {ev.describe()}")
            if ev.pid in crash_pids:
                raise MembershipError(
                    f"node P{ev.pid} both crashes and has a membership "
                    f"event; pick one per node")
        for c in crashes:
            c0, c1 = c.t, getattr(c, "t1", c.t)
            for ev in self.events():
                if c0 < ev.t1 and ev.t0 < c1:
                    raise MembershipError(
                        f"crash window of P{c.pid} overlaps "
                        f"{ev.describe()}; windows must be disjoint")
        from repro.absence import elect_steward
        for ev in self.drains:
            steward = elect_steward(ev.pid, nprocs)
            if steward in crash_pids:
                raise MembershipError(
                    f"steward P{steward} for {ev.describe()} is a crash "
                    f"victim; the handoff target must stay up")

    def describe(self) -> str:
        parts = [e.describe() for e in self.events()]
        hb = self.heartbeat
        parts.append(f"heartbeat period={hb.period_us:.0f}us "
                     f"suspect={hb.suspect_after_us:.0f}us "
                     f"evict={hb.evict_after_us:.0f}us")
        return "; ".join(parts)

    def as_dict(self) -> dict:
        return {
            "heartbeat": self.heartbeat.as_dict(),
            "joins": [{"pid": e.pid, "t": e.t} for e in self.joins],
            "drains": [{"pid": e.pid, "t": e.t, "away_us": e.away_us}
                       for e in self.drains],
            "silences": [{"pid": e.pid, "t": e.t, "down_us": e.down_us}
                         for e in self.silences],
        }


__all__ = ["HeartbeatConfig", "NodeJoin", "NodeDrain", "NodeSilence",
           "MembershipPlan"]
