"""Declarative, seeded fault plans for the simulated interconnect.

The paper's run-time assumes the SP/2's user-level MPL delivers every
message reliably; a :class:`FaultPlan` removes that assumption in a
controlled way.  A plan describes *what can go wrong on the fabric*:

* per-link message **drop**, **duplication**, **reordering** and
  **delay** probabilities (with an exponential extra-delay magnitude),
* timed **partitions** — groups of processors that cannot exchange
  messages during a window of simulated time,
* timed **node outages** — a processor whose NIC goes silent for a
  window: everything it sends or should receive during the window is
  lost (the node's DSM state survives untouched),
* scheduled **node crashes** — a fail-stop crash of the whole node:
  the NIC goes dark for the reboot window *and* the processor's DSM
  runtime state (page copies, twins, diffs, interval log, lock tokens,
  barrier arrival) is wiped and must come back through
  :mod:`repro.absence`.

Plans are *data*, not behavior: the same plan object can be printed,
serialized into a chaos report, and replayed.  All randomness is drawn
by :class:`repro.faults.inject.FaultInjector` from a dedicated
``random.Random(plan.seed)`` stream, so identical seeds replay
identical fault schedules — chaos runs are regression tests, not dice
rolls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import FaultPlanError

_PROB_FIELDS = ("drop", "dup", "reorder", "delay")


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
class NodeOutage:
    """Processor ``pid``'s NIC is dead during ``[t0, t1)``.

    This is a *network-level* outage only: the node neither sends nor
    receives while down, and the reliable transport's retries carry the
    traffic across the window — but the processor's DSM runtime state
    (page copies, twins, diffs, interval log, lock tokens, barrier
    arrival) survives untouched.  For a true fail-stop crash that wipes
    that state and exercises :mod:`repro.absence`, use
    :class:`NodeCrash` instead.
    """

    pid: int
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise FaultPlanError(
                f"NodeOutage window [{self.t0}, {self.t1}) is empty")

    def covers(self, t: float) -> bool:
        return self.t0 <= t < self.t1


@dataclass(frozen=True)
class NodeCrash:
    """Processor ``pid`` fail-stops at time ``t`` and reboots.

    Unlike :class:`NodeOutage` — a transient NIC silence that leaves
    the node's memory intact — a crash wipes the victim's entire DSM
    runtime state (page validity, twins, diffs, write notices, the
    interval log, held and queued lock tokens, barrier arrival state).
    The NIC is also dark for the reboot window ``[t, t + reboot_us)``.
    After reboot the node re-enters the computation with every shared
    page invalid and gets its protocol state back from its steward and
    the survivors via :mod:`repro.absence`; runs with crashes therefore
    require ``mode="dsm"`` and at least two processors.

    The crash is *realized* at the victim's next synchronization
    operation (lock acquire/release, barrier or push entry) at or after
    ``t``, so ``t`` is a lower bound on the wipe time.  Sync entries
    are the points where every previously validated region has fully
    run its kernels, which keeps the cut interval's overwrite
    (WRITE_ALL) claims sound; see ``AbsenceManager.gate``.
    """

    pid: int
    t: float
    #: Reboot duration: the NIC stays dark for ``[t, t + reboot_us)``.
    reboot_us: float = 20000.0

    def __post_init__(self) -> None:
        if self.t < 0:
            raise FaultPlanError(
                f"NodeCrash time must be >= 0, got {self.t!r}")
        if self.reboot_us <= 0:
            raise FaultPlanError(
                f"NodeCrash.reboot_us must be > 0, got "
                f"{self.reboot_us!r}")

    @property
    def t1(self) -> float:
        """End of the reboot window."""
        return self.t + self.reboot_us

    def covers(self, t: float) -> bool:
        """Is the NIC dark at time ``t`` (inside the reboot window)?"""
        return self.t <= t < self.t1


@dataclass(frozen=True)
class FaultPlan:
    """A full, seeded description of what the fabric does wrong."""

    seed: int = 0
    #: Faults applied to every link without an explicit override.
    default: LinkFaults = field(default_factory=LinkFaults)
    #: Per-directed-link overrides keyed by (src, dst).
    links: Mapping[Tuple[int, int], LinkFaults] = \
        field(default_factory=dict)
    partitions: Tuple[Partition, ...] = ()
    outages: Tuple[NodeOutage, ...] = ()
    crashes: Tuple[NodeCrash, ...] = ()
    #: Optional :class:`repro.membership.MembershipPlan` — elastic
    #: joins, drains, silences and the heartbeat failure detector.
    membership: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", dict(self.links))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        if self.membership is not None:
            # The nprocs-dependent checks run when the system is built
            # (MembershipPlan.validate_for); here we only cross-check
            # membership events against the crash schedule.
            try:
                events = self.membership.events()
            except AttributeError:
                raise FaultPlanError(
                    "FaultPlan.membership must be a MembershipPlan") \
                    from None
            crash_pids = {c.pid for c in self.crashes}
            for ev in events:
                if ev.pid in crash_pids:
                    raise FaultPlanError(
                        f"node P{ev.pid} both crashes and has a "
                        f"membership event; pick one per node")
        seen_pids = set()
        for c in self.crashes:
            if c.pid in seen_pids:
                raise FaultPlanError(
                    f"FaultPlan schedules more than one NodeCrash for "
                    f"pid {c.pid}; a processor can crash at most once "
                    f"per run")
            seen_pids.add(c.pid)
            for o in self.outages:
                if o.pid == c.pid and o.t0 < c.t1 and c.t < o.t1:
                    raise FaultPlanError(
                        f"NodeCrash(pid={c.pid}, t={c.t:g}, "
                        f"reboot_us={c.reboot_us:g}) overlaps "
                        f"NodeOutage(pid={o.pid}, t0={o.t0:g}, "
                        f"t1={o.t1:g}): a crash already implies a NIC "
                        f"outage for its reboot window, and overlapping "
                        f"the two makes the intended semantics "
                        f"ambiguous — separate the windows or drop the "
                        f"outage")

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
        if self.outages:
            parts.append(f"{len(self.outages)} node outages")
        if self.crashes:
            parts.append(f"{len(self.crashes)} node crashes")
        if self.membership is not None:
            parts.append(f"membership [{self.membership.describe()}]")
        return ", ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        d = self.default
        return {
            "seed": self.seed,
            "default": {f: getattr(d, f)
                        for f in _PROB_FIELDS + ("delay_mean_us",)},
            "links": {f"{s}->{t}": {f: getattr(lf, f)
                                    for f in _PROB_FIELDS}
                      for (s, t), lf in sorted(self.links.items())},
            "partitions": [{"t0": p.t0, "t1": p.t1,
                            "groups": [list(g) for g in p.groups]}
                           for p in self.partitions],
            "outages": [{"pid": o.pid, "t0": o.t0, "t1": o.t1}
                        for o in self.outages],
            "crashes": [{"pid": c.pid, "t": c.t,
                         "reboot_us": c.reboot_us}
                        for c in self.crashes],
            **({"membership": self.membership.as_dict()}
               if self.membership is not None else {}),
        }


# ----------------------------------------------------------------------
# Declarative plan files (the inverse of FaultPlan.as_dict).
# ----------------------------------------------------------------------

def plan_from_dict(data: Mapping[str, object]) -> FaultPlan:
    """Build a :class:`FaultPlan` from its ``as_dict`` representation.

    Accepts the exact shape :meth:`FaultPlan.as_dict` produces, with
    every field optional; unknown keys are rejected so a typoed plan
    file fails loudly instead of silently running fault-free.
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
                         "outages", "crashes", "membership"))

    def link_faults(spec, where: str) -> LinkFaults:
        check_keys(spec, where, (),
                   optional=_PROB_FIELDS + ("delay_mean_us",))
        return LinkFaults(**spec)

    links: Dict[Tuple[int, int], LinkFaults] = {}
    for key, spec in dict(data.get("links") or {}).items():
        try:
            s, t = (int(x) for x in str(key).split("->"))
        except ValueError:
            raise FaultPlanError(
                f"link key {key!r} must look like 'src->dst'") from None
        links[(s, t)] = link_faults(spec, f"links[{key!r}]")

    def membership_plan(spec):
        if spec is None:
            return None
        check_keys(spec, "membership", (),
                   optional=("heartbeat", "joins", "drains", "silences"))
        from repro.membership import (HeartbeatConfig, MembershipPlan,
                                      NodeDrain, NodeJoin, NodeSilence)
        hb_spec = check_keys(
            spec.get("heartbeat") or {}, "membership.heartbeat", (),
            optional=("period_us", "suspect_after_us", "evict_after_us",
                      "beat_send_cost_us", "beat_handler_cost_us",
                      "beat_bytes", "max_lifetime_us"))
        joins = tuple(
            NodeJoin(pid=int(j["pid"]), t=j["t"])
            for j in (check_keys(j, f"membership.joins[{i}]",
                                 ("pid", "t"))
                      for i, j in enumerate(spec.get("joins") or ())))
        drains = tuple(
            NodeDrain(pid=int(d["pid"]), t=d["t"], away_us=d["away_us"])
            for d in (check_keys(d, f"membership.drains[{i}]",
                                 ("pid", "t", "away_us"))
                      for i, d in enumerate(spec.get("drains") or ())))
        silences = tuple(
            NodeSilence(pid=int(s["pid"]), t=s["t"],
                        down_us=s["down_us"])
            for s in (check_keys(s, f"membership.silences[{i}]",
                                 ("pid", "t", "down_us"))
                      for i, s in enumerate(spec.get("silences") or ())))
        return MembershipPlan(heartbeat=HeartbeatConfig(**hb_spec),
                              joins=joins, drains=drains,
                              silences=silences)

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
            outages=tuple(
                NodeOutage(pid=int(o["pid"]), t0=o["t0"], t1=o["t1"])
                for o in (check_keys(o, f"outages[{i}]",
                                     ("pid", "t0", "t1"))
                          for i, o in enumerate(
                              data.get("outages") or ()))),
            crashes=tuple(
                NodeCrash(pid=int(c["pid"]), t=c["t"],
                          reboot_us=c.get("reboot_us", 20000.0))
                for c in (check_keys(c, f"crashes[{i}]", ("pid", "t"),
                                     optional=("reboot_us",))
                          for i, c in enumerate(
                              data.get("crashes") or ()))),
            membership=membership_plan(data.get("membership")))
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
