"""Elastic cluster membership for the TreadMarks-style DSM.

The :class:`MembershipManager` lets the processor set change while a
computation runs, generalizing :mod:`repro.recovery`'s crash handling
("the node lost everything") to three gentler transitions:

**Join.**  A planned late joiner sleeps (NIC dark, no compute) until
its join time, then announces itself (``mem.join``), collects every
peer's retained interval records (``mem.sync`` / ``mem.records``) and
replays them through :meth:`TmNode.apply_notices` — the same lazy
all-pages-invalid re-entry recovery uses: pages others wrote are
invalidated and fault back in on demand.

**Drain (graceful leave).**  At the drain time — realized, like
crashes, only at a synchronization-operation entry with no locks held —
the departing node flushes its open interval, materializes every diff
of its own retained intervals, and ships one ``mem.handoff`` to its
*steward* (the same deterministic :func:`repro.recovery.elect_backup`
rule): all retained records, its own diffs, its explicit lock tokens,
the routing tails of the locks it manages, and (if it holds it) the
barrier seat with the raw arrival box.  A ``mem.leave`` broadcast then
re-shards every peer's view: requests for the victim's locks route to
the steward (which can *claim* a parked token out of custody, once per
lock), diff requests for victim intervals at or below the drain
watermark go to the steward's custody copy, and the barrier seat moves
— permanently, so in-flight arrivals can never race a reverting seat.
On return the victim re-syncs (``mem.rejoin``/``mem.state``): the
steward hands back unclaimed tokens and the routing chains it
accumulated while acting, plus its current records so the victim
catches up on everything written while it was away.  Protocol requests
that raced the dark window are deferred (the recovery deferral
pattern) and replayed after the handback.

**Eviction (failure detection).**  Every member beats (``hb.beat``,
cheap unreliable datagrams, NIC-offloaded so a CPU deep in a compute
phase still beats on schedule) to its ring successor; the successor
suspects it after ``suspect_after_us`` of silence and declares an
eviction after ``evict_after_us``.  Eviction is deliberately
*bookkeeping plus re-admission*, not state surgery: a silenced node
keeps computing, survivors' reliable traffic to it simply stalls and
retries, and the first beat after the silence re-admits it
(``mem.admit``) — so a false positive costs time, never correctness.

Everything stays bit-identical to the static fault-free run because no
membership transition ever discards work: absence only shifts *when*
messages are delivered, and the reliable transport's retry budget
(~5 simulated seconds) dwarfs any plausible absence window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import MembershipError
from repro.faults.plan import NodeOutage
from repro.membership.plan import MembershipPlan
from repro.recovery import elect_backup
from repro.tm.diffs import diff_payload_bytes
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES


class _View:
    """One node's local picture of the cluster (views are per-node:
    membership changes propagate by messages, never by global state)."""

    __slots__ = ("absent", "prejoin", "seat", "steward", "watermark",
                 "evicted")

    def __init__(self, prejoin) -> None:
        #: Drained members between their mem.leave and mem.join.
        self.absent: Set[int] = set()
        #: Planned joiners not yet announced.
        self.prejoin: Set[int] = set(prejoin)
        #: Current barrier seat (moves to the steward when the seat
        #: drains; monotonic — it never moves back).
        self.seat: int = 0
        #: victim -> its steward, while absent.
        self.steward: Dict[int, int] = {}
        #: victim -> drain watermark (its own highest interval index).
        self.watermark: Dict[int, int] = {}
        #: Members this node has heard an eviction verdict about.
        self.evicted: Set[int] = set()


class _Custody:
    """A drained victim's handed-off protocol state, at its steward."""

    __slots__ = ("tokens", "claimed", "diffs", "active")

    def __init__(self, tokens) -> None:
        #: The victim's explicit lock-token map at drain time.
        self.tokens: Dict[int, bool] = dict(tokens)
        #: Tokens the steward claimed out of custody (stay with the
        #: cluster; everything else returns at handback).
        self.claimed: Set[int] = set()
        #: (victim, interval, page) -> diff, serving stale-view
        #: requesters until the protocol's own GC clears them.
        self.diffs: Dict[Tuple[int, int, int], object] = {}
        #: False once the handback completed: no further claims.
        self.active = True


class MembershipManager:
    """Joins, drains and the failure detector for one DSM run."""

    def __init__(self, system, plan: MembershipPlan, crashes) -> None:
        self.sys = system
        self.plan = plan
        self.hb = plan.heartbeat
        n = system.nprocs
        self.n = n
        plan.validate_for(n, crashes)
        self._join = {j.pid: j for j in plan.joins}
        self._drain = {d.pid: d for d in plan.drains}
        self._silence = {s.pid: s for s in plan.silences}
        #: Drain/join lifecycle per planned pid ("pending" -> "away" ->
        #: "rejoining" -> "member"; joiners "dormant" -> "joining" ->
        #: "member").  Unplanned pids are implicitly "member".
        self._status: Dict[int, str] = {}
        for p in self._drain:
            self._status[p] = "pending"
        for p in self._join:
            self._status[p] = "dormant"
        self._steward: Dict[int, int] = {
            p: elect_backup(p, n) for p in self._drain}
        self.view: List[_View] = [_View(self._join) for _ in range(n)]
        self._custody: Dict[int, _Custody] = {}
        #: Requests that raced a victim's dark window, replayed after
        #: its handback (same pattern as RecoveryManager._deferred).
        self._deferred: Dict[int, List[tuple]] = {}
        inj = system.net.injector
        if inj is None:
            raise MembershipError(
                "membership needs the fault injector (pass the plan "
                "via FaultPlan.membership so the network builds one)")
        # --- failure detector ------------------------------------------
        # Beat phases are seeded from the fault plan so same-seed runs
        # replay identical heartbeat schedules.
        import random
        self._rng = random.Random(inj.plan.seed ^ 0x6D656D)
        #: monitor pid -> monitoree pid -> last beat (or benefit of the
        #: doubt) time.
        self._last_heard: List[Dict[int, float]] = [
            {(m - 1) % n: 0.0} for m in range(n)]
        #: Global detector verdict per pid ("member" / "suspected" /
        #: "evicted"), written only by the designated ring monitor.
        self._verdict: Dict[int, str] = {p: "member" for p in range(n)}
        # --- churn cost accounting (reported by the elastic harness) ---
        self.handoff_messages = 0
        self.handoff_bytes = 0
        self.beats_sent = 0
        self.suspicions = 0
        self.evictions = 0
        self.admissions = 0
        self.tokens_claimed = 0
        self.joins_done = 0
        self.drains_done = 0
        self.detect_us: List[float] = []
        # Static NIC-dark windows: a joiner is dark from t=0 to its
        # join, a silenced node for its silence window.  Drain windows
        # are appended dynamically at realization time.
        for j in self._join.values():
            if j.t > 0:
                inj.dynamic.append(NodeOutage(j.pid, 0.0, j.t))
        for s in self._silence.values():
            inj.dynamic.append(NodeOutage(s.pid, s.t, s.t1))
        system.engine.add_debug_source(self.debug_lines)

    # ------------------------------------------------------------------
    # Views (every query is from one node's perspective).
    # ------------------------------------------------------------------

    def seat_of(self, viewer: int) -> int:
        """The barrier seat, as node ``viewer`` currently believes."""
        return self.view[viewer].seat

    def route_pid(self, viewer: int, target: int) -> int:
        """Where ``viewer`` should send traffic meant for ``target``."""
        vw = self.view[viewer]
        if target in vw.absent:
            return vw.steward[target]
        return target

    def acting_manager(self, viewer: int, lid: int) -> int:
        """The node currently managing lock ``lid``, per ``viewer``."""
        return self.route_pid(viewer, lid % self.n)

    def absent_writer(self, viewer: int, w: int) \
            -> Optional[Tuple[int, int]]:
        """``(steward, watermark)`` if writer ``w`` is drained away."""
        vw = self.view[viewer]
        if w in vw.absent:
            return vw.steward[w], vw.watermark[w]
        return None

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        """Register the membership handlers on one node."""
        ep = node.ep
        ep.on("hb.beat",
              lambda msg, node=node: self._h_beat(node, msg),
              interrupt=False)
        ep.on("mem.handoff",
              lambda msg, node=node: self._h_handoff(node, msg))
        ep.on("mem.leave",
              lambda msg, node=node: self._h_leave(node, msg))
        ep.on("mem.join",
              lambda msg, node=node: self._h_join(node, msg))
        ep.on("mem.rejoin",
              lambda msg, node=node: self._h_rejoin(node, msg))
        ep.on("mem.sync",
              lambda msg, node=node: self._h_sync(node, msg))
        ep.on("mem.diff_req",
              lambda msg, node=node: self._h_diff_req(node, msg))
        ep.on("mem.evict",
              lambda msg, node=node: self._h_verdict(node, msg, True))
        ep.on("mem.admit",
              lambda msg, node=node: self._h_verdict(node, msg, False))
        # The barrier seat can move, so every node must be able to
        # receive (and relay) arrivals, not just the static master.
        if node.pid != node.master_pid:
            ep.on("barrier_arrive", node._h_barrier_arrive,
                  interrupt=False)
        if node.pid in self._drain:
            self._wrap_deferrable(node)

    def _wrap_deferrable(self, node) -> None:
        """Park protocol requests that race the victim's dark window.

        Between drain realization and the handback install the victim's
        token/tail state is in custody; a ``lock_req``/``lock_fwd``/
        ``diff_req``/``mem.diff_req``/``mem.sync`` delivered in that
        window (a retried frame landing right as the NIC returns) would
        read state that is mid-handoff.  Deferred requests replay, in
        arrival order, once the handback completes.
        """
        for kind in ("diff_req", "lock_req", "lock_fwd",
                     "mem.diff_req", "mem.sync"):
            entry = node.ep.handlers.get(kind)
            if entry is None:
                continue
            handler, interrupt = entry

            def wrapped(msg, handler=handler, pid=node.pid):
                if self._status.get(pid) in ("away", "rejoining"):
                    self._deferred.setdefault(pid, []) \
                        .append((handler, msg))
                else:
                    handler(msg)

            node.ep.on(kind, wrapped, interrupt=interrupt)

    def start(self) -> None:
        """Arm the per-node heartbeat timers (after nodes exist)."""
        for node in self.sys.nodes:
            phase = self._rng.uniform(0.0, self.hb.period_us)
            self.sys.engine.call_at(
                phase, lambda n=node: self._tick(n))

    # ------------------------------------------------------------------
    # Heartbeats and the failure detector.
    # ------------------------------------------------------------------

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
        vw = self.view[m]
        if dark or p in vw.prejoin or p in vw.absent:
            # I cannot hear anyone / the silence is expected: hold the
            # timer instead of accusing.
            self._last_heard[m][p] = now
            return
        quiet = now - self._last_heard[m].get(p, 0.0)
        verdict = self._verdict[p]
        if quiet > self.hb.evict_after_us and verdict != "evicted":
            self._verdict[p] = "evicted"
            self.evictions += 1
            if node.tel is not None:
                node.tel.event(m, "mem.evict", target=p,
                               quiet_us=quiet)
            node.ep.broadcast("mem.evict", payload=p, size=8)
        elif quiet > self.hb.suspect_after_us and verdict == "member":
            self._verdict[p] = "suspected"
            self.suspicions += 1
            self.detect_us.append(quiet - self.hb.period_us)
            if node.tel is not None:
                node.tel.event(m, "mem.suspect", target=p,
                               quiet_us=quiet)

    def _h_beat(self, node, msg) -> None:
        node.ep.charge(self.hb.beat_handler_cost_us)
        src = msg.payload
        self._last_heard[node.pid][src] = self.sys.engine.now
        if (src + 1) % self.n == node.pid \
                and self._verdict.get(src) in ("suspected", "evicted"):
            # The "dead" member speaks: re-admit it.  A false positive
            # ends here, with the run intact.
            was = self._verdict[src]
            self._verdict[src] = "member"
            self.admissions += 1
            if node.tel is not None:
                node.tel.event(node.pid, "mem.admit", target=src,
                               was=was)
            if was == "evicted":
                node.ep.broadcast("mem.admit", payload=src, size=8)

    def _h_verdict(self, node, msg, evicted: bool) -> None:
        node._charge(node.cfg.request_service)
        target = msg.payload
        vw = self.view[node.pid]
        if evicted:
            vw.evicted.add(target)
        else:
            vw.evicted.discard(target)
            self._last_heard[node.pid][target] = self.sys.engine.now

    # ------------------------------------------------------------------
    # Join (dormant start; lazy all-pages-invalid re-entry).
    # ------------------------------------------------------------------

    def startup(self, node) -> None:
        """Called in process context before ``main``: realize a join."""
        j = self._join.get(node.pid)
        if j is None or j.t <= 0:
            return
        node.proc.advance(j.t)
        self._status[node.pid] = "joining"
        node.ep.broadcast("mem.join", payload=node.pid, size=8)
        peers = [q for q in range(self.n) if q != node.pid]
        node._req_seq += 1
        tag = node._req_seq
        for q in peers:
            node.ep.send(q, "mem.sync", payload=(node.pid, tag),
                         size=8, tag=tag)
        self.handoff_messages += len(peers) + len(peers)
        t0 = self.sys.engine.now
        for q in peers:
            msg = node.ep.recv(kind="mem.records", src=q, tag=tag)
            vc, recs = msg.payload
            self.handoff_bytes += msg.size
            # The join path IS the recovery re-entry path: replaying
            # the union of everyone's notices invalidates exactly the
            # pages written while this node was not yet a member.
            node.apply_notices(recs, vc)
        self._status[node.pid] = "member"
        self.joins_done += 1
        if node.tel is not None:
            node.tel.event(node.pid, "mem.join", t_sched=j.t,
                           how="join",
                           dur_us=self.sys.engine.now - t0,
                           handoff_messages=self.handoff_messages,
                           handoff_bytes=self.handoff_bytes)

    def _h_sync(self, node, msg) -> None:
        """A joiner asks for my retained records."""
        node._charge(node.cfg.request_service)
        joiner, tag = msg.payload
        recs = tuple(node.intervals.values())
        size = VC_ENTRY_BYTES * self.n + interval_wire_bytes(recs)
        node.ep.send(msg.src, "mem.records",
                     payload=(node._vc_tuple(), recs), size=size,
                     tag=tag)

    def _h_join(self, node, msg) -> None:
        """A member (re)announced itself: it is reachable again."""
        node._charge(node.cfg.request_service)
        joiner = msg.payload
        vw = self.view[node.pid]
        vw.prejoin.discard(joiner)
        vw.absent.discard(joiner)
        self._last_heard[node.pid][joiner] = self.sys.engine.now

    # ------------------------------------------------------------------
    # Drain (graceful leave with deterministic re-sharding).
    # ------------------------------------------------------------------

    def syncpoint(self, node) -> None:
        """Called at sync-operation entries (the crashpoint rule):
        realize a due drain when the node is quiescent."""
        if self._status.get(node.pid) != "pending":
            return
        d = self._drain[node.pid]
        if self.sys.engine.now < d.t:
            return
        if node._atomic_depth > 0 or node._op_active:
            return
        if node.lock_held or any(node.lock_pending.values()):
            return      # leave only between critical sections
        self._realize_drain(node, d)

    def _realize_drain(self, node, d) -> None:
        victim, n = node.pid, self.n
        steward = self._steward[victim]
        engine = self.sys.engine
        node._drain_async_plans()
        node.end_interval()
        # Materialize every diff of my own retained intervals: custody
        # must be able to serve them while I am unreachable.
        own = sorted((rec for rec in node.intervals.values()
                      if rec.writer == victim),
                     key=lambda r: r.index)
        for rec in own:
            for p in rec.pages:
                key = (victim, rec.index, p)
                if key not in node.diff_store:
                    node.diff_store[key] = \
                        node._get_or_make_diff(p, rec.index)
        watermark = node.vc[victim]
        records = tuple(node.intervals.values())
        diffs = tuple((k, dd) for k, dd in node.diff_store.items()
                      if k[0] == victim)
        tokens = dict(node.lock_token)
        tails = {lid: t for lid, t in node.lock_tail.items()
                 if lid % n == victim}
        was_seat = self.view[victim].seat == victim
        box = dict(node._barrier_box) if was_seat else {}
        self._status[victim] = "away"
        if was_seat:
            self.view[victim].seat = steward
        size = (interval_wire_bytes(records)
                + diff_payload_bytes(d for _, d in diffs)
                + 16 * (len(tokens) + len(tails))
                + VC_ENTRY_BYTES * n + 16)
        node.ep.send(steward, "mem.handoff",
                     payload=(victim, records, diffs, tokens, tails,
                              node._vc_tuple(), box, was_seat,
                              watermark),
                     size=size)
        node.ep.broadcast("mem.leave",
                          payload=(victim, steward, watermark), size=12)
        self.handoff_messages += n          # 1 handoff + (n-1) leaves
        self.handoff_bytes += size + 12 * (n - 1)
        if node.tel is not None:
            node.tel.event(victim, "mem.leave", t_sched=d.t,
                           away_us=d.away_us, steward=steward,
                           watermark=watermark, handoff_bytes=size)
        # Dark window: strictly after the handoff frames depart, so the
        # injector does not eat our own goodbye.
        t_dark = max(engine.now, node.proc.busy_until) + 1e-6
        self.sys.net.injector.dynamic.append(
            NodeOutage(victim, t_dark, t_dark + d.away_us))
        node.proc.advance(t_dark + d.away_us - engine.now)
        self._rejoin(node, steward)

    def _rejoin(self, node, steward: int) -> None:
        victim = node.pid
        self._status[victim] = "rejoining"
        t0 = self.sys.engine.now
        node._req_seq += 1
        tag = node._req_seq
        node.ep.send(steward, "mem.rejoin", payload=(victim, tag),
                     size=8, tag=tag)
        msg = node.ep.recv(kind="mem.state", src=steward, tag=tag)
        tokens_back, tails_back, recs, svc = msg.payload
        self.handoff_messages += 2
        self.handoff_bytes += msg.size + 8
        # Catch up on the world: apply everything the steward knows,
        # invalidating the pages written while I was away.
        node.apply_notices(recs, svc)
        node.lock_token.update(tokens_back)
        node.lock_tail.update(tails_back)
        self._status[victim] = "member"
        self.drains_done += 1
        node.ep.broadcast("mem.join", payload=victim, size=8)
        self.handoff_messages += self.n - 1
        if node.tel is not None:
            node.tel.event(victim, "mem.join", how="rejoin",
                           dur_us=self.sys.engine.now - t0,
                           handoff_messages=self.handoff_messages,
                           handoff_bytes=self.handoff_bytes)
        for handler, m in self._deferred.pop(victim, ()):
            handler(m)

    def _h_handoff(self, node, msg) -> None:
        """Steward side: take custody of a drained victim's state."""
        node._charge(node.cfg.request_service)
        (victim, records, diffs, tokens, tails, vvc, box, was_seat,
         watermark) = msg.payload
        cust = _Custody(tokens)
        cust.diffs = dict(diffs)
        self._custody[victim] = cust
        plane = getattr(self.sys.net, "onesided", None)
        if plane is not None:
            # One-sided mode: re-register the inherited diffs as this
            # steward's custody windows, so below-watermark fetches for
            # the drained writer stay one-sided reads.
            for (w, i, p), dd in cust.diffs.items():
                plane.register(node.pid, ("cdiff", w, i, p), value=dd,
                               nbytes=dd.wire_bytes)
        # Conservative install: apply_notices merges the clock and
        # invalidates through the normal event stream, so the inspector
        # sees ordinary tm.invalidate traffic, not magic.
        node.apply_notices(records, vvc)
        node.lock_tail.update(tails)
        vw = self.view[node.pid]
        vw.absent.add(victim)
        vw.steward[victim] = node.pid
        vw.watermark[victim] = watermark
        if was_seat:
            vw.seat = node.pid
            for pid, entry in box.items():
                node._barrier_box.setdefault(pid, entry)
            if len(node._barrier_box) == node.nprocs:
                node.proc.wake()

    def _h_leave(self, node, msg) -> None:
        victim, steward, watermark = msg.payload
        node._charge(node.cfg.request_service)
        vw = self.view[node.pid]
        vw.absent.add(victim)
        vw.steward[victim] = steward
        vw.watermark[victim] = watermark
        if vw.seat == victim:
            vw.seat = steward
        # A graceful goodbye is not a failure: hold the detector.
        self._last_heard[node.pid][victim] = self.sys.engine.now

    def _h_rejoin(self, node, msg) -> None:
        """Steward side: hand the custody state back to the victim."""
        node._charge(node.cfg.request_service)
        victim, tag = msg.payload
        cust = self._custody[victim]
        cust.active = False
        tokens_back = {lid: False for lid in cust.claimed}
        for lid, val in cust.tokens.items():
            if lid not in cust.claimed:
                tokens_back[lid] = val
        tails_back = {lid: t for lid, t in node.lock_tail.items()
                      if lid % self.n == victim}
        recs = tuple(node.intervals.values())
        size = (VC_ENTRY_BYTES * self.n + interval_wire_bytes(recs)
                + 16 * (len(tokens_back) + len(tails_back)))
        # Mark the victim present BEFORE replying: any request this
        # steward re-forwards to it afterwards follows the mem.state
        # frame on the same FIFO channel, so it lands on installed
        # state.
        vw = self.view[node.pid]
        vw.absent.discard(victim)
        self._last_heard[node.pid][victim] = self.sys.engine.now
        node.ep.send(msg.src, "mem.state",
                     payload=(tokens_back, tails_back, recs,
                              node._vc_tuple()),
                     size=size, tag=tag)

    # ------------------------------------------------------------------
    # Custody services (lock tokens, diffs) while the victim is away.
    # ------------------------------------------------------------------

    def claim_token(self, node, lid: int) -> bool:
        """Give ``node`` a token parked in a custody it stewards.

        One-shot per lock: after the claim the token lives with the
        cluster (normal tail routing takes over) and the handback
        returns ``False`` for it.  The default rule mirrors
        ``TmNode._has_token``: an untouched lock's token sits with its
        static manager.
        """
        for victim, cust in self._custody.items():
            if not cust.active or self._steward[victim] != node.pid:
                continue
            if lid in cust.claimed:
                continue
            if cust.tokens.get(lid, lid % self.n == victim):
                cust.claimed.add(lid)
                node.lock_token[lid] = True
                self.tokens_claimed += 1
                return True
        return False

    def _h_diff_req(self, node, msg) -> None:
        """Serve a victim's diffs out of custody (below the watermark)."""
        node._charge(node.cfg.request_service)
        victim, entries, tag = msg.payload
        cust = self._custody.get(victim)
        diffs = []
        for (p, i) in entries:
            d = None if cust is None else cust.diffs.get((victim, i, p))
            if d is None:
                raise MembershipError(
                    f"steward P{node.pid} has no custody diff for "
                    f"writer P{victim} interval={i} page={p} "
                    f"(custody {'gone' if cust is None else 'trimmed'})")
            diffs.append(d)
        node.ep.send(msg.src, "diff_resp", payload=tuple(diffs),
                     size=diff_payload_bytes(diffs), tag=tag)

    def on_gc_discard(self, pid: int) -> None:
        """Barrier-time GC on ``pid``: its custody diffs are dead weight
        (after the GC rendezvous nothing pre-GC is ever requested)."""
        trimmed = False
        for victim, cust in self._custody.items():
            if self._steward[victim] == pid:
                cust.diffs = {}
                trimmed = True
        plane = getattr(self.sys.net, "onesided", None)
        if trimmed and plane is not None:
            plane.deregister_where(pid, lambda k: k[0] == "cdiff")

    # ------------------------------------------------------------------
    # Diagnostics and reporting.
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Churn cost, for the elastic harness report."""
        return {
            "handoff_messages": self.handoff_messages,
            "handoff_bytes": self.handoff_bytes,
            "beats_sent": self.beats_sent,
            "suspicions": self.suspicions,
            "evictions": self.evictions,
            "admissions": self.admissions,
            "tokens_claimed": self.tokens_claimed,
            "joins": self.joins_done,
            "drains": self.drains_done,
            "detect_us": max(self.detect_us) if self.detect_us else 0.0,
        }

    def debug_lines(self) -> List[str]:
        """Membership state for the engine's deadlock dump."""
        out: List[str] = []
        for pid in sorted(self._status):
            out.append(f"membership P{pid}: {self._status[pid]}")
        for victim, cust in sorted(self._custody.items()):
            out.append(
                f"custody of P{victim} at P{self._steward[victim]}: "
                f"{'active' if cust.active else 'returned'}, "
                f"{len(cust.diffs)} diffs, "
                f"{len(cust.claimed)} tokens claimed")
        for pid, dfd in sorted(self._deferred.items()):
            if dfd:
                out.append(f"membership P{pid}: {len(dfd)} deferred "
                           f"requests")
        bad = {p: v for p, v in self._verdict.items() if v != "member"}
        if bad:
            out.append("detector verdicts: "
                       + ", ".join(f"P{p}={v}"
                                   for p, v in sorted(bad.items())))
        return out
