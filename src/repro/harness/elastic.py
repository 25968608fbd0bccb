"""Elastic-membership sweep: churn must be invisible to the result.

For every case (app x opt level x membership schedule) this harness
runs the application twice — once on a static fault-free cluster, once
with a scheduled membership change (:mod:`repro.membership`) — and
asserts the results are *bit-identical*: join catch-up, drain handoff,
seat migration, lock-token custody and detector re-admission must
between them never lose or duplicate a write.  Each elastic run is
traced, fed through the protocol inspector (whose invariants must
still reconcile exactly) and through the DSM sanitizer (zero races,
zero hint violations).

Schedules are *mined* from the fault-free run's telemetry:

``join-early``
    The last processor is a late joiner: dormant until 15% of the
    fault-free run time, then catches up through the lazy
    all-pages-invalid re-entry path.
``drain-mid``
    Processor 1 gracefully leaves at 50% for a fifth of the run,
    handing its interval records, diffs and lock state to its steward.
``drain-master``
    Processor 0 — barrier seat and static manager of the lowest locks —
    drains at 40%: exercises seat migration, mid-episode barrier
    handoff and lock-token custody in one schedule.
``evict-at-barrier``
    While some processor sits in its longest barrier wait, the
    processor it is waiting for goes NIC-silent for far longer than the
    eviction threshold: the detector declares an eviction, the silent
    node keeps computing, and the first beat after the window re-admits
    it.
``suspect-then-recover``
    A short silence between the suspicion and eviction thresholds: the
    detector *wrongly* suspects a live node and must survive its own
    false positive — the node is re-admitted and the run still
    bit-identical.

What churn *may* change is cost, and the sweep reports exactly that:
handoff messages/bytes, heartbeat frames, detection latency, and the
added run time — all in the versioned JSON envelope
(``repro-elastic/1``).

Used by ``python -m repro elastic`` and the elastic-smoke CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.harness.sweep import Case, Sweep
from repro.membership import (HeartbeatConfig, MembershipPlan, NodeDrain,
                              NodeJoin, NodeSilence)

#: Mined schedule names, in the order the sweep runs them.
SCHEDULES = ("join-early", "drain-mid", "drain-master",
             "evict-at-barrier", "suspect-then-recover")


@dataclass
class ElasticSchedule:
    """One named membership schedule for a given app/opt pair."""

    name: str
    plan: MembershipPlan
    #: Detector verdicts this schedule must provoke (and survive).
    expect: frozenset = frozenset()

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(membership=self.plan)


@dataclass
class ElasticCase(Case):
    """Outcome of one static/elastic run pair."""

    app: str
    opt: Optional[str]
    schedule: str
    identical: bool = False      # arrays bit-identical to static run
    realized: bool = False       # the membership event actually fired
    expected: frozenset = frozenset()
    observed: frozenset = frozenset()
    violations: List[str] = field(default_factory=list)  # inspector
    findings: List[str] = field(default_factory=list)    # sanitizer
    error: Optional[str] = None
    # Cost of elasticity:
    base_time: float = 0.0
    time: float = 0.0
    handoff_messages: int = 0
    handoff_bytes: int = 0
    beats: int = 0
    detect_us: float = 0.0       # worst detection latency observed
    suspicions: int = 0
    evictions: int = 0
    admissions: int = 0

    @property
    def as_planned(self) -> bool:
        """The event fired, every expected detector verdict was
        observed, and no eviction happened that was not planned."""
        return (self.realized and self.expected <= self.observed
                and ("evicted" in self.expected
                     or "evicted" not in self.observed))

    @property
    def unrealized(self) -> str:
        return (f"expected {sorted(self.expected)} but observed "
                f"{sorted(self.observed)}")

    def as_dict(self) -> dict:
        return {
            "app": self.app, "opt": self.opt, "schedule": self.schedule,
            "ok": self.ok, "identical": self.identical,
            "realized": self.realized,
            "expected": sorted(self.expected),
            "observed": sorted(self.observed),
            "violations": list(self.violations),
            "findings": list(self.findings), "error": self.error,
            "base_time_us": self.base_time, "time_us": self.time,
            "added_time_us": self.added_time,
            "handoff_messages": self.handoff_messages,
            "handoff_bytes": self.handoff_bytes,
            "beats": self.beats, "detect_us": self.detect_us,
            "suspicions": self.suspicions,
            "evictions": self.evictions,
            "admissions": self.admissions,
        }


def mine_schedules(base, nprocs: int,
                   names: Optional[Sequence[str]] = None,
                   heartbeat: Optional[HeartbeatConfig] = None) \
        -> List[ElasticSchedule]:
    """Derive membership schedules from a fault-free traced run.

    ``base`` is the fault-free :class:`DsmOutcome` run with telemetry.
    """
    wanted = set(names if names is not None else SCHEDULES)
    hb = heartbeat or HeartbeatConfig()
    total = base.time
    out: List[ElasticSchedule] = []
    if "join-early" in wanted:
        out.append(ElasticSchedule(
            "join-early",
            MembershipPlan(heartbeat=hb, joins=(
                NodeJoin(nprocs - 1, total * 0.15),))))
    if "drain-mid" in wanted and nprocs > 2:
        out.append(ElasticSchedule(
            "drain-mid",
            MembershipPlan(heartbeat=hb, drains=(
                NodeDrain(1, total * 0.50, total * 0.20),))))
    if "drain-master" in wanted:
        out.append(ElasticSchedule(
            "drain-master",
            MembershipPlan(heartbeat=hb, drains=(
                NodeDrain(0, total * 0.40, total * 0.20),))))
    tel = base.telemetry
    if tel is not None and "evict-at-barrier" in wanted:
        waits = [s for s in tel.spans.spans if s.name == "wait.barrier"]
        if waits:
            s = max(waits, key=lambda s: s.t1 - s.t0)
            victim = (s.pid + 1) % nprocs
            down = max(hb.evict_after_us * 2.5, 12000.0)
            out.append(ElasticSchedule(
                "evict-at-barrier",
                MembershipPlan(heartbeat=hb, silences=(
                    NodeSilence(victim, (s.t0 + s.t1) / 2, down),)),
                expect=frozenset(("suspected", "evicted", "admitted"))))
    if "suspect-then-recover" in wanted:
        down = (hb.suspect_after_us + hb.evict_after_us) / 2
        out.append(ElasticSchedule(
            "suspect-then-recover",
            MembershipPlan(heartbeat=hb, silences=(
                NodeSilence(nprocs - 2, total * 0.30, down),)),
            expect=frozenset(("suspected", "admitted"))))
    return out


def _start(app, opt, label, seed, plan):
    if plan is None:        # label is a mined ElasticSchedule
        return ElasticCase(app=app, opt=opt, schedule=label.name,
                           expected=label.expect), label.fault_plan()
    if plan.membership is None:
        raise ReproError(
            "elastic run_case needs a fault plan with a "
            "'membership' block")
    return ElasticCase(app=app, opt=opt, schedule=label), plan


def _costs(case: ElasticCase, base, out) -> None:
    observed = set()
    for ev in out.telemetry.bus.events:
        a = ev.args or {}
        if ev.kind == "mem.join":
            case.realized = True
            observed.add("joined" if a.get("how") == "join"
                         else "drained")
            case.handoff_messages = max(case.handoff_messages,
                                        a.get("handoff_messages", 0))
            case.handoff_bytes = max(case.handoff_bytes,
                                     a.get("handoff_bytes", 0))
        elif ev.kind == "mem.leave":
            case.realized = True
        elif ev.kind == "mem.suspect":
            case.realized = True
            observed.add("suspected")
            case.suspicions += 1
            case.detect_us = max(case.detect_us,
                                 a.get("quiet_us", 0.0))
        elif ev.kind == "mem.evict":
            observed.add("evicted")
            case.evictions += 1
        elif ev.kind == "mem.admit":
            observed.add("admitted")
            case.admissions += 1
    case.observed = frozenset(observed)
    case.beats = out.net.by_kind.get("hb.beat", 0)


POLICY = Sweep(
    kind="elastic", perturbation="membership",
    labels=SCHEDULES, flag="--schedules", mine=mine_schedules,
    start=_start, costs=_costs,
    title="Elastic sweep: membership churn vs static cluster "
          "(bit-identical required)",
    headers=("app", "opt", "schedule", "status", "handoff", "handoff B",
             "beats", "detect", "+time"),
    row=lambda c: [c.app, c.opt or "-", c.schedule, c.status,
                   c.handoff_messages, c.handoff_bytes, c.beats,
                   f"{c.detect_us:.0f}us" if c.detect_us else "-",
                   f"{c.added_time:+.0f}us"],
    note="status 'ok' = results bit-identical, the scheduled "
         "join/drain/suspicion realized (and any eviction was "
         "survived), zero inspector violations, zero sanitizer "
         "findings.",
    survived="membership changes absorbed")

run_case = POLICY.run_case
render_elastic = POLICY.render


def sweep(apps=None, opts=None, schedules=None, **kw) -> List[ElasticCase]:
    """The elastic matrix: apps x applicable opt levels x schedules."""
    return POLICY.sweep(apps, opts, schedules, **kw)
