"""Deterministic run-time realization of a :class:`FaultPlan`.

One :class:`FaultInjector` is interposed at the wire stage of
:class:`repro.net.network.Network`: every frame transmission (data,
retransmission or ack) asks :meth:`FaultInjector.plan_copies` what the
fabric does with it, and every frame arrival asks :meth:`outage_at`
whether the destination NIC is alive.

All randomness comes from one dedicated ``random.Random(plan.seed)``
stream.  The discrete-event simulation is deterministic, so the
injector is consulted in an identical order on every run — identical
seeds therefore replay identical fault schedules, injected-fault
counts, retry counts and final state.

Every decision is mirrored into :class:`repro.net.stats.NetStats`
fault counters and, when telemetry is attached, emitted as a
``fault.*`` event (``fault.drop``, ``fault.dup``, ``fault.reorder``,
``fault.delay``, ``fault.partition``, ``fault.outage``) so
``repro.inspect`` and the chaos report can attribute degradation.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.faults.plan import Absence, FaultPlan


class FaultInjector:
    """Applies one seeded plan to one simulated network."""

    def __init__(self, plan: FaultPlan, nprocs: int, stats=None,
                 telemetry=None) -> None:
        self.plan = plan
        self.nprocs = nprocs
        self.rng = random.Random(plan.seed)
        #: Optional :class:`repro.net.stats.NetStats` for fault counters.
        self.stats = stats
        self.tel = telemetry
        #: Every NIC-dark window: the plan's silences, crashes and joins,
        #: and each drain's window once it is realized (a drain leaves
        #: at the gate, so only the absence manager knows when).
        self.dark: List[Absence] = [a for a in plan.absences
                                    if a.policy != "drain"]

    # ------------------------------------------------------------------

    def _note(self, kind: str, src: int, dst: int, msg_kind: str,
              counter: str, **args) -> None:
        if self.stats is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self.tel is not None:
            self.tel.event(src, f"fault.{kind}", to=dst, msg=msg_kind,
                           **args)

    def outage_at(self, pid: int, t: float) -> Optional[Absence]:
        """The absence silencing ``pid``'s NIC at time ``t``, if any.

        Whatever the policy, the wire and transport layers treat every
        dark window identically (a crash's state wipe is the absence
        manager's business).
        """
        for a in self.dark:
            if a.pid == pid and a.covers(t):
                return a
        return None

    # ------------------------------------------------------------------

    def plan_copies(self, src: int, dst: int, msg_kind: str,
                    depart: float) -> List[float]:
        """Fabric treatment of one frame departing ``src`` at ``depart``.

        Returns the list of extra-delay offsets (microseconds beyond the
        nominal wire time), one per copy the fabric will deliver; an
        empty list means the frame is lost.  Draws from the plan's RNG
        stream in a deterministic order.
        """
        down = self.outage_at(src, depart)
        if down is not None:
            self._note("outage", src, dst, msg_kind, "faults_outage",
                       **({"crash": True} if down.policy == "crash"
                          else {}))
            return []
        for part in self.plan.partitions:
            if part.separates(src, dst, depart):
                self._note("partition", src, dst, msg_kind,
                           "faults_partitioned")
                return []
        lf = self.plan.link(src, dst)
        if lf.quiet:
            return [0.0]
        rng = self.rng
        if lf.drop and rng.random() < lf.drop:
            self._note("drop", src, dst, msg_kind, "faults_dropped")
            return []
        extra = 0.0
        if lf.reorder and rng.random() < lf.reorder:
            extra = rng.expovariate(1.0 / lf.delay_mean_us) \
                if lf.delay_mean_us > 0 else 0.0
            self._note("reorder", src, dst, msg_kind,
                       "faults_reordered", extra_us=extra)
        elif lf.delay and rng.random() < lf.delay:
            extra = rng.expovariate(1.0 / lf.delay_mean_us) \
                if lf.delay_mean_us > 0 else 0.0
            self._note("delay", src, dst, msg_kind, "faults_delayed",
                       extra_us=extra)
        copies = [extra]
        if lf.dup and rng.random() < lf.dup:
            lag = rng.expovariate(1.0 / lf.delay_mean_us) \
                if lf.delay_mean_us > 0 else 0.0
            copies.append(extra + lag)
            self._note("dup", src, dst, msg_kind, "faults_duplicated",
                       extra_us=copies[-1])
        return copies
