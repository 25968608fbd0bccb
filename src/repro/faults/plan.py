"""Declarative, seeded fault plans for the simulated cluster.

The paper's run-time assumes the SP/2's user-level MPL delivers every
message reliably and that no node ever goes away; a :class:`FaultPlan`
removes both assumptions in a controlled way.  A plan describes:

* per-link message **drop**, **duplication**, **reordering** and
  **delay** probabilities (with an exponential extra-delay magnitude),
* timed **partitions** — groups of processors that cannot exchange
  messages during a window of simulated time,
* node **absences** — one event type, :class:`Absence`, for every way a
  processor is away on ``[t, t + away_us)``, named by its ``policy``:
  a ``silence`` (the NIC is dark, the DSM state survives), a ``crash``
  (the NIC is dark *and* the DSM runtime state is wiped and comes back
  through :mod:`repro.absence`), a graceful ``drain`` and a late
  ``join``,
* an optional :class:`HeartbeatConfig` — the failure detector runs iff
  a plan has one; a drain or a join always does.

Plans are *data*, not behavior: the same plan object can be printed,
serialized into a chaos report, and replayed.  All randomness is drawn
by :class:`repro.faults.inject.FaultInjector` from a dedicated
``random.Random(plan.seed)`` stream, so identical seeds replay
identical fault schedules — chaos runs are regression tests, not dice
rolls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import FaultPlanError

_PROB_FIELDS = ("drop", "dup", "reorder", "delay")
_LINK_FIELDS = _PROB_FIELDS + ("delay_mean_us",)
#: The absence policies.  ``silence`` leaves the node's state alone;
#: the other three are the rows of ``repro.absence.manager``'s table.
POLICIES = ("silence", "crash", "drain", "join")


@dataclass(frozen=True)
class LinkFaults:
    """Fault distribution for one directed (src, dst) link.

    All four probabilities are evaluated independently per message;
    ``delay_mean_us`` is the mean of the exponential extra latency used
    by duplication, reordering and delay.
    """

    #: P(message silently lost on the wire).
    drop: float = 0.0
    #: P(the fabric delivers a second, later copy).
    dup: float = 0.0
    #: P(message held back long enough to overtake its successors).
    reorder: float = 0.0
    #: P(message delayed without reordering intent).
    delay: float = 0.0
    #: Mean of the exponential extra-delay distribution (microseconds).
    delay_mean_us: float = 300.0

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultPlanError(
                    f"LinkFaults.{name} must be a probability in "
                    f"[0, 1], got {p!r}")
        if self.delay_mean_us < 0:
            raise FaultPlanError(
                f"LinkFaults.delay_mean_us must be >= 0, got "
                f"{self.delay_mean_us!r}")

    @property
    def quiet(self) -> bool:
        return all(getattr(self, f) == 0.0 for f in _PROB_FIELDS)


@dataclass(frozen=True)
class Partition:
    """During ``[t0, t1)`` processors in different groups cannot talk.

    A processor absent from every group is unrestricted.  Messages
    *departing* while the partition holds are lost (the fabric has no
    store-and-forward across a partition).
    """

    t0: float
    t1: float
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise FaultPlanError(
                f"Partition window [{self.t0}, {self.t1}) is empty")
        object.__setattr__(
            self, "groups",
            tuple(tuple(g) for g in self.groups))

    def separates(self, src: int, dst: int, t: float) -> bool:
        if not self.t0 <= t < self.t1:
            return False
        gsrc = gdst = None
        for i, group in enumerate(self.groups):
            if src in group:
                gsrc = i
            if dst in group:
                gdst = i
        return gsrc is not None and gdst is not None and gsrc != gdst


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
            raise FaultPlanError(
                f"heartbeat period must be positive, got {self.period_us}")
        if not (self.period_us < self.suspect_after_us
                < self.evict_after_us):
            raise FaultPlanError(
                "heartbeat thresholds must satisfy period < suspect_after "
                f"< evict_after; got period={self.period_us}, "
                f"suspect_after={self.suspect_after_us}, "
                f"evict_after={self.evict_after_us}")
        if self.max_lifetime_us <= 0:
            raise FaultPlanError(
                f"max_lifetime_us must be positive, got "
                f"{self.max_lifetime_us}")


@dataclass(frozen=True)
class Absence:
    """Processor ``pid`` is away on ``[t, t + away_us)``.

    The NIC is dark for the window whatever the ``policy``; what else
    happens is the policy's:

    * ``silence`` — nothing else: the node keeps computing and its DSM
      state survives; the reliable transport retries across the window.
      With a heartbeat in the plan this is what drives the failure
      detector (suspicion, eviction, re-admission).
    * ``crash`` — a fail-stop crash: the DSM runtime state (page
      validity, twins, diffs, write notices, interval log, lock tokens,
      barrier arrivals) is wiped, and ``away_us`` is the reboot time.
      It is *realized* at the node's next synchronization operation at
      or after ``t`` (``AbsenceManager.gate``), so ``t`` is a lower
      bound on the wipe time.
    * ``drain`` — a graceful leave at the gate: the node hands its role
      state to its steward, then goes dark for ``away_us``.
    * ``join`` — the node is dormant from the start (``t = 0``) until
      ``away_us``, then catches up.  ``away_us = 0`` is a member from
      the start.
    """

    policy: str
    pid: int
    t: float
    away_us: float

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise FaultPlanError(
                f"absence policy must be one of {list(POLICIES)}, got "
                f"{self.policy!r}")
        if self.policy == "join":
            if self.t != 0 or self.away_us < 0:
                raise FaultPlanError(
                    f"a join is away from t=0 until its join time "
                    f"away_us >= 0: {self.describe()}")
        elif self.away_us <= 0:
            raise FaultPlanError(
                f"absence away_us must be > 0: {self.describe()}")
        elif self.t < 0 and self.policy != "silence":
            # (A silence is checked by the plan: without a heartbeat it
            # is a plain outage, which may start before the run.)
            raise FaultPlanError(
                f"absence time must be >= 0: {self.describe()}")

    @property
    def t1(self) -> float:
        """End of the window."""
        return self.t + self.away_us

    def covers(self, t: float) -> bool:
        """Is the NIC dark at time ``t``?"""
        return self.t <= t < self.t1

    def describe(self) -> str:
        return (f"{self.policy} P{self.pid} at t={self.t:g}us for "
                f"{self.away_us:g}us")


@dataclass(frozen=True)
class FaultPlan:
    """A full, seeded description of what goes wrong in one run."""

    seed: int = 0
    #: Faults applied to every link without an explicit override.
    default: LinkFaults = field(default_factory=LinkFaults)
    #: Per-directed-link overrides keyed by (src, dst).
    links: Mapping[Tuple[int, int], LinkFaults] = \
        field(default_factory=dict)
    partitions: Tuple[Partition, ...] = ()
    absences: Tuple[Absence, ...] = ()
    #: The failure detector's tuning; it runs iff this is set.  A plan
    #: with a drain or a join gets the default.
    heartbeat: Optional[HeartbeatConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", dict(self.links))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "absences", tuple(self.absences))
        if self.heartbeat is None and any(
                getattr(a, "policy", None) in ("drain", "join")
                for a in self.absences):
            object.__setattr__(self, "heartbeat", HeartbeatConfig())
        self.validate()

    def validate(self, nprocs: Optional[int] = None) -> None:
        """The one plan validator; the checks that need the cluster size
        run when the absence manager is built with ``nprocs``.

        A silence without a heartbeat is a plain NIC outage: it may
        start before 0, repeat and overlap, and is only kept clear of a
        crash of the same node.  Every other absence is one per node,
        and its window is disjoint from every other one, crash windows
        among themselves excepted.
        """
        if self.heartbeat is not None \
                and not isinstance(self.heartbeat, HeartbeatConfig):
            raise FaultPlanError(
                "FaultPlan.heartbeat must be a HeartbeatConfig")
        if not all(isinstance(a, Absence) for a in self.absences):
            raise FaultPlanError(
                "FaultPlan.absences must hold Absence events")
        outage = self.heartbeat is None
        outages = [a for a in self.absences
                   if outage and a.policy == "silence"]
        tracked = [a for a in self.absences
                   if not outage or a.policy != "silence"]
        crash_pids = {a.pid for a in tracked if a.policy == "crash"}
        if nprocs is not None and nprocs < 2 \
                and (crash_pids or self.heartbeat is not None):
            raise FaultPlanError(
                f"node absence needs nprocs >= 2 (a lone processor has "
                f"no survivors to recover from), got {nprocs}")
        seen: Dict[int, Absence] = {}
        where = "" if nprocs is None else f" for nprocs={nprocs}"
        for a in tracked:
            if a.t < 0 or a.pid < 0 \
                    or nprocs is not None and a.pid >= nprocs:
                raise FaultPlanError(
                    f"absence pid or time out of range{where}: "
                    f"{a.describe()}")
            if a.pid in seen:
                raise FaultPlanError(
                    f"a node is away at most once per run: "
                    f"{seen[a.pid].describe()} and {a.describe()}")
            seen[a.pid] = a
        for i, a in enumerate(tracked):
            for b in tracked[i + 1:]:
                if a.t < b.t1 and b.t < a.t1 \
                        and not a.policy == b.policy == "crash":
                    raise FaultPlanError(
                        f"absence windows overlap: {a.describe()} and "
                        f"{b.describe()}; windows must be disjoint")
        for o in outages:
            c = seen.get(o.pid)     # without a heartbeat, only crashes
            if c is not None and o.t < c.t1 and c.t < o.t1:
                raise FaultPlanError(
                    f"{c.describe()} overlaps {o.describe()}: a crash "
                    f"already darkens the NIC for its reboot window; "
                    f"separate the windows or drop the silence")
        if nprocs is not None:
            from repro.absence import elect_steward
            for a in tracked:
                if a.policy == "drain" \
                        and elect_steward(a.pid, nprocs) in crash_pids:
                    raise FaultPlanError(
                        f"steward P{elect_steward(a.pid, nprocs)} for "
                        f"{a.describe()} is a crash victim; the handoff "
                        f"target must stay up")

    # ------------------------------------------------------------------

    def link(self, src: int, dst: int) -> LinkFaults:
        return self.links.get((src, dst), self.default)

    @classmethod
    def uniform(cls, seed: int = 0, drop: float = 0.0, dup: float = 0.0,
                reorder: float = 0.0, delay: float = 0.0,
                delay_mean_us: float = 300.0, **kw) -> "FaultPlan":
        """The common case: the same fault mix on every link."""
        return cls(seed=seed,
                   default=LinkFaults(drop=drop, dup=dup,
                                      reorder=reorder, delay=delay,
                                      delay_mean_us=delay_mean_us),
                   **kw)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        d = self.default
        parts = [f"seed={self.seed}",
                 f"drop={d.drop:g} dup={d.dup:g} reorder={d.reorder:g} "
                 f"delay={d.delay:g} (mean {d.delay_mean_us:g}us)"]
        if self.links:
            parts.append(f"{len(self.links)} per-link overrides")
        if self.partitions:
            parts.append(f"{len(self.partitions)} partitions")
        parts += [a.describe() for a in self.absences]
        hb = self.heartbeat
        if hb is not None:
            parts.append(f"heartbeat period={hb.period_us:g}us "
                         f"suspect={hb.suspect_after_us:g}us "
                         f"evict={hb.evict_after_us:g}us")
        return ", ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "default": {f: getattr(self.default, f) for f in _LINK_FIELDS},
            "links": {f"{s}->{t}": {f: getattr(lf, f) for f in _LINK_FIELDS}
                      for (s, t), lf in sorted(self.links.items())},
            "partitions": [{"t0": p.t0, "t1": p.t1,
                            "groups": [list(g) for g in p.groups]}
                           for p in self.partitions],
            "absences": [asdict(a) for a in self.absences],
            **({"heartbeat": asdict(self.heartbeat)}
               if self.heartbeat is not None else {}),
        }


# ----------------------------------------------------------------------
# Declarative plan files (the inverse of FaultPlan.as_dict).
# ----------------------------------------------------------------------

def plan_from_dict(data: Mapping[str, object]) -> FaultPlan:
    """Build a :class:`FaultPlan` from its ``as_dict`` representation.

    Accepts the exact shape :meth:`FaultPlan.as_dict` produces, with
    every top-level block optional; unknown keys are rejected so a
    typoed plan file fails loudly instead of silently running
    fault-free.
    """
    if not isinstance(data, Mapping):
        raise FaultPlanError(
            f"fault plan must be a JSON object, got {type(data).__name__}")
    def check_keys(spec, where: str, required, optional=()) -> Mapping:
        """Per-entry key validation with an explicit accepted-key list."""
        allowed = set(required) | set(optional)
        if not isinstance(spec, Mapping):
            raise FaultPlanError(
                f"{where} must be a JSON object; accepted keys are "
                f"{sorted(allowed)}")
        bad = sorted(set(spec) - allowed)
        if bad:
            raise FaultPlanError(
                f"{where} has unknown key(s) {bad}; accepted keys are "
                f"{sorted(allowed)}")
        missing = sorted(set(required) - set(spec))
        if missing:
            raise FaultPlanError(
                f"{where} is missing required key(s) {missing}; "
                f"accepted keys are {sorted(allowed)}")
        return spec

    check_keys(data, "fault plan", (),
               optional=("seed", "default", "links", "partitions",
                         "absences", "heartbeat"))

    def link_faults(spec, where: str) -> LinkFaults:
        return LinkFaults(**check_keys(spec, where, (),
                                       optional=_LINK_FIELDS))

    links: Dict[Tuple[int, int], LinkFaults] = {}
    for key, spec in dict(data.get("links") or {}).items():
        try:
            s, t = (int(x) for x in str(key).split("->"))
        except ValueError:
            raise FaultPlanError(
                f"link key {key!r} must look like 'src->dst'") from None
        links[(s, t)] = link_faults(spec, f"links[{key!r}]")

    hb = data.get("heartbeat")
    try:
        return FaultPlan(
            seed=int(data.get("seed", 0)),
            default=link_faults(data.get("default") or {}, "default"),
            links=links,
            partitions=tuple(
                Partition(t0=p["t0"], t1=p["t1"],
                          groups=tuple(tuple(g) for g in p["groups"]))
                for p in (check_keys(p, f"partitions[{i}]",
                                     ("t0", "t1", "groups"))
                          for i, p in enumerate(
                              data.get("partitions") or ()))),
            absences=tuple(
                Absence(a["policy"], int(a["pid"]), a["t"], a["away_us"])
                for a in (check_keys(a, f"absences[{i}]",
                                     ("policy", "pid", "t", "away_us"))
                          for i, a in enumerate(
                              data.get("absences") or ()))),
            heartbeat=None if hb is None else HeartbeatConfig(
                **check_keys(hb, "heartbeat", (), optional=[
                    f.name for f in fields(HeartbeatConfig)])))
    except (KeyError, TypeError) as exc:
        raise FaultPlanError(f"malformed fault plan: {exc!r}") from exc


def plan_from_json(path: str) -> FaultPlan:
    """Load a declarative :class:`FaultPlan` from a JSON file."""
    import json
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") \
            from exc
    except ValueError as exc:
        raise FaultPlanError(
            f"fault plan {path!r} is not valid JSON: {exc}") from exc
    return plan_from_dict(data)
