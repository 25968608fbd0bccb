"""Chaos sweep: prove the DSM survives an unreliable fabric unchanged.

For every case (app x opt level x fault intensity) this harness runs the
application twice — once on the perfect fabric, once under a seeded
:class:`~repro.faults.FaultPlan` with the reliable transport enabled —
and then asserts the *results are bit-identical*: the transport's
exactly-once, in-order delivery must make injected drops, duplicates and
reordering invisible to the protocol above it.  Each faulted run is also
traced and fed through the protocol inspector, whose invariants
(timeline legality, stat reconstruction, critical-path tiling) must all
still hold.

What faults *may* change is cost, and the sweep reports exactly that:
extra messages (retransmits + acks), duplicate frames discarded, and
added simulated time.

Used by ``python -m repro chaos`` and the chaos-smoke CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.harness.sweep import Case, Sweep

#: Named fault intensities: per-message probabilities applied uniformly
#: to every link.  "heavy" matches the acceptance bar (10% drop + 10%
#: duplicate + 10% reorder) and still must yield bit-identical results.
INTENSITIES: Dict[str, Dict[str, float]] = {
    "light": dict(drop=0.01, dup=0.01, reorder=0.01, delay=0.01),
    "moderate": dict(drop=0.05, dup=0.05, reorder=0.05, delay=0.02),
    "heavy": dict(drop=0.10, dup=0.10, reorder=0.10, delay=0.02),
}


@dataclass
class ChaosCase(Case):
    """Outcome of one fault-free/faulted run pair."""

    app: str
    opt: Optional[str]
    intensity: str
    seed: int
    identical: bool = False      # arrays bit-identical to fault-free run
    violations: List[str] = field(default_factory=list)
    error: Optional[str] = None  # TransportError / deadlock, if any
    # Cost of robustness (faulted minus fault-free):
    base_time: float = 0.0
    time: float = 0.0
    base_messages: int = 0
    messages: int = 0
    retransmits: int = 0
    acks: int = 0
    dup_frames_discarded: int = 0
    faults_injected: int = 0

    @property
    def label(self) -> str:
        return self.intensity

    @property
    def extra_messages(self) -> int:
        return self.messages - self.base_messages

    def as_dict(self) -> dict:
        return {
            "app": self.app, "opt": self.opt,
            "intensity": self.intensity, "seed": self.seed,
            "ok": self.ok, "identical": self.identical,
            "violations": list(self.violations), "error": self.error,
            "base_time_us": self.base_time, "time_us": self.time,
            "added_time_us": self.added_time,
            "base_messages": self.base_messages,
            "messages": self.messages,
            "extra_messages": self.extra_messages,
            "retransmits": self.retransmits, "acks": self.acks,
            "dup_frames_discarded": self.dup_frames_discarded,
            "faults_injected": self.faults_injected,
        }


def _start(app, opt, intensity, seed, plan):
    """The seeded uniform plan named by ``intensity`` (which only
    labels the case when an explicit ``plan`` is given)."""
    if plan is None:
        if intensity not in INTENSITIES:
            raise ReproError(
                f"unknown intensity {intensity!r}; expected one of "
                f"{sorted(INTENSITIES)}")
        plan = FaultPlan.uniform(seed=seed, **INTENSITIES[intensity])
    return ChaosCase(app=app, opt=opt, intensity=intensity,
                     seed=seed), plan


def _costs(case: ChaosCase, base, out) -> None:
    case.base_messages = base.net.messages
    case.messages = out.net.messages
    case.retransmits = out.net.retransmits
    case.acks = out.net.acks
    case.dup_frames_discarded = out.net.dup_frames_discarded
    case.faults_injected = out.net.faults_injected


POLICY = Sweep(
    kind="chaos", perturbation="faults",
    labels=tuple(INTENSITIES), flag="--intensity",
    start=_start, costs=_costs,
    title="Chaos sweep: faulted vs fault-free (bit-identical required)",
    headers=("app", "opt", "intensity", "status", "faults", "retx",
             "acks", "+msgs", "+time"),
    row=lambda c: [c.app, c.opt or "-", c.intensity, c.status,
                   c.faults_injected, c.retransmits, c.acks,
                   c.extra_messages, f"{c.added_time:+.0f}us"],
    note="status 'ok' = results bit-identical, zero inspector "
         "violations; +msgs counts retransmits and acks.",
    survived="cases survived")

run_case = POLICY.run_case
render_chaos = POLICY.render


def sweep(apps=None, opts=None, intensities=None, **kw) -> List[ChaosCase]:
    """The chaos matrix: apps x applicable opt levels x intensities."""
    return POLICY.sweep(apps, opts, intensities, **kw)
