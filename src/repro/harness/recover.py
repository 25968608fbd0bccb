"""Recovery sweep: prove a fail-stop crash is invisible to the result.

For every case (app x opt level x crash schedule) this harness runs the
application twice — once fault-free, once with a scheduled ``crash``
:class:`~repro.faults.Absence` — and asserts the results are
*bit-identical*: the crash policy of ``repro.absence`` (custody
streamed to a steward while the crash is pending, a re-entry round
after the reboot) must bring back exactly the state the crash wiped.  Each faulted run is traced, fed through the protocol
inspector (whose invariants must still reconcile exactly) and through
the DSM sanitizer (which must report zero races and zero hint
violations).

Crash schedules are *mined* from the fault-free run's telemetry rather
than hard-coded, so each case exercises a distinct protocol situation:

``early`` / ``mid``
    The last (resp. second) processor crashes at 25% (resp. 50%) of the
    fault-free run time — plain mid-computation crashes.
``manager``
    Processor 0 — the barrier master and the static manager of the
    lowest locks — crashes at 35%: its barrier box and routing tails
    must come back out of custody.
``barrier``
    While some processor sits in its longest barrier wait, a *different*
    processor (one it is waiting for) crashes: the victim's own arrival
    is the crash point and the survivors are mid-barrier.
``lock``
    A processor crashes between a lock acquire and the matching release
    (only mined when the app uses locks): the crash realizes at the
    release with the token held, exercising the restored token and
    request queue.

What a crash *may* change is cost, and the sweep reports exactly that:
custody frames/bytes streamed to the steward pre-crash, bytes of the
re-entry round, and its duration.

Used by ``python -m repro recover`` and the recovery-smoke CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults import Absence, FaultPlan
from repro.harness.sweep import Case, Schedule, Sweep, barrier_victim

#: Mined schedule names, in the order the sweep runs them.
SCHEDULES = ("early", "mid", "manager", "barrier", "lock")
#: Reboot time of a mined crash (us).
REBOOT_US = 20000.0


def _crash(name: str, pid: int, t: float) -> Schedule:
    return Schedule(name, FaultPlan(
        absences=(Absence("crash", pid, t, REBOOT_US),)))


@dataclass
class RecoverCase(Case):
    """Outcome of one fault-free/crashed run pair."""

    app: str
    opt: Optional[str]
    schedule: str
    pid: int = 0
    t: float = 0.0
    identical: bool = False      # arrays bit-identical to fault-free run
    realized: bool = False       # the crash actually fired
    violations: List[str] = field(default_factory=list)  # inspector
    findings: List[str] = field(default_factory=list)    # sanitizer
    error: Optional[str] = None
    # Cost of crash tolerance:
    base_time: float = 0.0
    time: float = 0.0
    log_messages: int = 0
    log_bytes: int = 0
    state_bytes: int = 0
    recovery_us: float = 0.0
    records: int = 0             # interval records restored
    diffs: int = 0               # diffs restocked out of custody

    unrealized = "the scheduled crash never fired"

    def as_dict(self) -> dict:
        return {
            "app": self.app, "opt": self.opt, "schedule": self.schedule,
            "pid": self.pid, "t_us": self.t,
            "ok": self.ok, "identical": self.identical,
            "realized": self.realized,
            "violations": list(self.violations),
            "findings": list(self.findings), "error": self.error,
            "base_time_us": self.base_time, "time_us": self.time,
            "added_time_us": self.added_time,
            "log_messages": self.log_messages,
            "log_bytes": self.log_bytes,
            "state_bytes": self.state_bytes,
            "recovery_us": self.recovery_us,
            "records": self.records, "diffs": self.diffs,
        }


def mine_schedules(base, nprocs: int,
                   names: Optional[Sequence[str]] = None) -> List[Schedule]:
    """Derive crash schedules from a fault-free traced run.

    ``base`` is the fault-free traced DSM run's
    :class:`~repro.harness.outcome.RunOutcome`.
    Schedules that do not apply (a lock-free app has no ``lock`` case)
    are silently omitted.
    """
    wanted = set(names if names is not None else SCHEDULES)
    total = base.time
    out: List[Schedule] = []
    if "early" in wanted:
        out.append(_crash("early", nprocs - 1, total * 0.25))
    if "mid" in wanted and nprocs > 1:
        out.append(_crash("mid", 1, total * 0.50))
    if "manager" in wanted:
        out.append(_crash("manager", 0, total * 0.35))
    victim = barrier_victim(base, nprocs) if "barrier" in wanted else None
    if victim is not None:
        out.append(_crash("barrier", *victim))
    tel = base.telemetry
    if tel is not None and "lock" in wanted:
        held: Dict[int, float] = {}
        best = None
        for ev in tel.bus.events:
            if ev.kind == "tm.lock_acquire":
                held[ev.pid] = ev.ts
            elif ev.kind == "tm.lock_release" and ev.pid in held:
                t0 = held.pop(ev.pid)
                if best is None or ev.ts - t0 > best[2] - best[1]:
                    best = (ev.pid, t0, ev.ts)
        if best is not None:
            pid, t0, t1 = best
            out.append(_crash("lock", pid, (t0 + t1) / 2))
    return out


def _start(app, opt, label, seed, plan):
    if plan is None:        # label is a mined Schedule
        label, plan = label.name, label.plan
    crash = next((a for a in plan.absences if a.policy == "crash"), None)
    return RecoverCase(app=app, opt=opt, schedule=label,
                       pid=crash.pid if crash else -1,
                       t=crash.t if crash else 0.0), plan


def _costs(case: RecoverCase, base, out) -> None:
    for ev in out.telemetry.bus.events:
        if ev.kind == "rec.crash":
            case.realized = True
        elif ev.kind == "rec.recover":
            a = ev.args or {}
            case.log_messages = a.get("log_messages", 0)
            case.log_bytes = a.get("log_bytes", 0)
            case.state_bytes = a.get("state_bytes", 0)
            case.recovery_us = a.get("dur_us", 0.0)
            case.records = a.get("records", 0)
            case.diffs = a.get("diffs", 0)


POLICY = Sweep(
    kind="recover", perturbation="crashes",
    labels=SCHEDULES, flag="--schedules", mine=mine_schedules,
    start=_start, costs=_costs,
    title="Recovery sweep: crashed vs fault-free (bit-identical required)",
    headers=("app", "opt", "schedule", "victim", "status", "log msgs",
             "log B", "state B", "recovery", "+time"),
    row=lambda c: [c.app, c.opt or "-", c.schedule, f"P{c.pid}",
                   c.status, c.log_messages, c.log_bytes, c.state_bytes,
                   f"{c.recovery_us:.0f}us", f"{c.added_time:+.0f}us"],
    note="status 'ok' = results bit-identical, zero inspector "
         "violations, zero sanitizer findings; log counts what the "
         "victim streamed to its steward before the crash.",
    survived="crashes recovered")

run_case = POLICY.run_case
render_recover = POLICY.render


def sweep(apps=None, opts=None, schedules=None, **kw) -> List[RecoverCase]:
    """The recovery matrix: apps x applicable opt levels x schedules."""
    return POLICY.sweep(apps, opts, schedules, **kw)
