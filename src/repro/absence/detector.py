"""Heartbeat failure detector: suspicion, eviction, re-admission.

Every member beats (``hb.beat``, cheap unreliable datagrams,
NIC-offloaded so a CPU deep in a compute phase still beats on schedule)
to its ring successor; the successor suspects it after
``suspect_after_us`` of silence and declares an eviction after
``evict_after_us``.  Eviction is deliberately *bookkeeping plus
re-admission*, not state surgery: a silenced node keeps computing,
survivors' reliable traffic to it simply stalls and retries, and the
first beat after the silence re-admits it (``mem.admit``) — so a false
positive costs time, never correctness.

The detector shares nothing with custody: it never moves protocol
state.  All it needs from the absence manager is to be told when a
silence is expected (``expected``: a planned joiner not yet announced,
a drained member) and when a peer was heard from by other means
(:meth:`heard`: a leave, a join).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Set


class AbsenceDetector:
    """Ring heartbeats and the verdicts drawn from their silence."""

    def __init__(self, system, hb, seed: int,
                 expected: Callable[[int, int], bool]) -> None:
        self.sys = system
        self.hb = hb
        n = self.n = system.nprocs
        #: ``expected(monitor, pid)``: is ``pid``'s silence planned, as
        #: far as ``monitor`` knows?
        self.expected = expected
        # Beat phases are seeded from the fault plan so same-seed runs
        # replay identical heartbeat schedules.
        self._rng = random.Random(seed ^ 0x6D656D)
        #: monitor pid -> monitoree pid -> last beat (or benefit of the
        #: doubt) time.
        self._last_heard: List[Dict[int, float]] = [
            {(m - 1) % n: 0.0} for m in range(n)]
        #: Global detector verdict per pid ("member" / "suspected" /
        #: "evicted"), written only by the designated ring monitor.
        self.verdict: Dict[int, str] = {p: "member" for p in range(n)}
        #: Per node: members it has heard an eviction verdict about.
        self.evicted: List[Set[int]] = [set() for _ in range(n)]
        self.beats_sent = 0
        self.suspicions = 0
        self.evictions = 0
        self.admissions = 0
        self.detect_us: List[float] = []

    def attach(self, node) -> None:
        ep = node.ep
        ep.on("hb.beat",
              lambda msg, node=node: self._h_beat(node, msg),
              interrupt=False)
        ep.on("mem.evict",
              lambda msg, node=node: self._h_verdict(node, msg, True))
        ep.on("mem.admit",
              lambda msg, node=node: self._h_verdict(node, msg, False))

    def start(self) -> None:
        """Arm the per-node heartbeat timers (after nodes exist)."""
        for node in self.sys.nodes:
            phase = self._rng.uniform(0.0, self.hb.period_us)
            self.sys.engine.call_at(
                phase, lambda n=node: self._tick(n))

    def heard(self, monitor: int, pid: int) -> None:
        """``monitor`` has word of ``pid`` (a goodbye, a hello): give
        it the benefit of the doubt from now."""
        self._last_heard[monitor][pid] = self.sys.engine.now

    def _tick(self, node) -> None:
        engine = self.sys.engine
        if not engine.any_alive or engine.now >= self.hb.max_lifetime_us:
            return      # run is over (or hung): stop rescheduling
        pid = node.pid
        inj = self.sys.net.injector
        dark = inj.outage_at(pid, engine.now) is not None
        if not dark and self.n > 1:
            succ = (pid + 1) % self.n
            node.ep.send(succ, "hb.beat", payload=pid,
                         size=self.hb.beat_bytes,
                         send_cost=self.hb.beat_send_cost_us,
                         unreliable=True, offload=True)
            self.beats_sent += 1
        self._check(node, dark)
        engine.call_after(self.hb.period_us, lambda: self._tick(node))

    def _check(self, node, dark: bool) -> None:
        """Detector duty: judge my ring predecessor's silence."""
        m = node.pid
        p = (m - 1) % self.n
        if p == m:
            return
        now = self.sys.engine.now
        if dark or self.expected(m, p):
            # I cannot hear anyone / the silence is expected: hold the
            # timer instead of accusing.
            self._last_heard[m][p] = now
            return
        quiet = now - self._last_heard[m].get(p, 0.0)
        verdict = self.verdict[p]
        if quiet > self.hb.evict_after_us and verdict != "evicted":
            self.verdict[p] = "evicted"
            self.evictions += 1
            if node.tel is not None:
                node.tel.event(m, "mem.evict", target=p,
                               quiet_us=quiet)
            node.ep.broadcast("mem.evict", payload=p, size=8)
        elif quiet > self.hb.suspect_after_us and verdict == "member":
            self.verdict[p] = "suspected"
            self.suspicions += 1
            self.detect_us.append(quiet - self.hb.period_us)
            if node.tel is not None:
                node.tel.event(m, "mem.suspect", target=p,
                               quiet_us=quiet)

    def _h_beat(self, node, msg) -> None:
        node.proc.charge("cpu.heartbeat", self.hb.beat_handler_cost_us)
        src = msg.payload
        self._last_heard[node.pid][src] = self.sys.engine.now
        if (src + 1) % self.n == node.pid \
                and self.verdict.get(src) in ("suspected", "evicted"):
            # The "dead" member speaks: re-admit it.  A false positive
            # ends here, with the run intact.
            was = self.verdict[src]
            self.verdict[src] = "member"
            self.admissions += 1
            if node.tel is not None:
                node.tel.event(node.pid, "mem.admit", target=src,
                               was=was)
            if was == "evicted":
                node.ep.broadcast("mem.admit", payload=src, size=8)

    def _h_verdict(self, node, msg, evicted: bool) -> None:
        node.charge("cpu.request", node.cfg.request_service)
        target = msg.payload
        if evicted:
            self.evicted[node.pid].add(target)
        else:
            self.evicted[node.pid].discard(target)
            self.heard(node.pid, target)
