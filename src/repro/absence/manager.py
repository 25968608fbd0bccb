"""One absence mechanism: crash, drain and join over one custody core.

Every node holds protocol roles that outlive its presence — static lock
manager, token holder, barrier seat, diff server.  When a node is gone
for a while, one lifecycle covers it whatever the reason::

    pending --gate--> away --dark window--> returning --round--> member

* **pending** — the event is scheduled but has not fired.  At every
  synchronization-operation entry the node passes the *gate*
  (:meth:`AbsenceManager.gate`), which lets a due event fire only where
  the cut is clean.
* **away** — the node's role state is in *custody* at its steward
  (:func:`elect_steward`, the next pid), its NIC is dark, and protocol
  requests that reach it are *deferred*.
* **returning** — one tagged *re-entry round*: ask peers for their
  interval records and the steward for the custody copy, replay the
  records through ``TmNode.apply_notices`` (the lazy all-pages-invalid
  re-entry: pages written meanwhile fault back in on demand), install
  the custody copy, replay the deferred requests, emit the event.

Crash, drain and join are rows of :data:`CRASH`, :data:`DRAIN` and
:data:`JOIN` — the "Drain vs. evict vs. crash" table of
``docs/robustness.md`` — and differ in nothing else: whether the node
must be between critical sections to leave, what it ships before going
dark, whether it wipes, whom it asks on return.

"Crash is drain without the goodbye" is literal.  A drain ships the one
custody record (interval records, diffs, lock tokens, routing tails,
queued requests, barrier box) at once and announces the leave, so
peers redirect to the steward, which stands in.  A crash cannot say
goodbye, so while it is pending the node *streams* the same record:
every closed interval and every change of its lock/barrier state goes
to the steward as it happens.  Peers never learn of a crash; their
traffic waits out the reboot in the transport's retries and the
deferral queue, and re-entry installs the streamed copy — nothing is
inferred from what survivors happen to remember.

Everything stays bit-identical to the fault-free run because no
transition discards work: absence only shifts *when* messages are
delivered, and the reliable transport's retry budget (~5 simulated
seconds) dwarfs any plausible absence window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.absence.detector import AbsenceDetector
from repro.errors import FaultPlanError, MembershipError
from repro.faults.plan import NodeOutage
from repro.tm.diffs import diff_payload_bytes
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES
from repro.tm.roles import Roles

#: Wire size of one (writer, interval, page) applied-watermark entry.
APPLIED_ENTRY_BYTES = 12
#: Requests a node must not serve while its state is in custody.
DEFERRABLE = ("diff_req", "lock_req", "lock_fwd", "custody.diff_req",
              "rec.ask", "mem.ask")


def elect_steward(pid: int, nprocs: int) -> int:
    """Who holds ``pid``'s custody: the next processor in pid order.

    A rule every node can compute without communication — the same one
    a real system would use to re-elect the statically-assigned
    (pid-keyed) lock and barrier managers.
    """
    return (pid + 1) % nprocs


@dataclass(frozen=True)
class Policy:
    """One kind of absence: a row of the drain/crash/join table."""

    name: str
    #: Wire-kind prefix of its frames, and the cost meter they count in.
    wire: str
    #: May it leave now?  Always only at the gate; with ``quiesce``
    #: additionally only between critical sections.
    quiesce: bool
    #: What it ships before going dark: ``"handoff"`` — the custody
    #: record at once, plus a leave announcement (the goodbye);
    #: ``"stream"`` — the same record continuously while pending;
    #: ``None`` — nothing (it never held anything).
    ships: Optional[str]
    #: Does it lose its DSM runtime state while away?
    wipes: bool
    #: Whom it asks on return: every ``"peer"``, or the ``"steward"``.
    asks: str
    #: When it announces the return: ``None`` (peers never knew),
    #: ``"first"`` (before asking), ``"last"`` (after the install).
    hello: Optional[str]


CRASH = Policy("crash", "rec", quiesce=False, ships="stream", wipes=True,
               asks="peer", hello=None)
DRAIN = Policy("drain", "mem", quiesce=True, ships="handoff", wipes=False,
               asks="steward", hello="last")
JOIN = Policy("join", "mem", quiesce=False, ships=None, wipes=False,
              asks="peer", hello="first")


class Frame(NamedTuple):
    """One custody shipment: a delta to merge into the record and,
    optionally, a snapshot of the sender's role state."""

    victim: int
    records: tuple = ()
    diffs: tuple = ()
    #: (writer, interval, page) triples applied since the last frame.
    applied: tuple = ()
    roles: Optional[Roles] = None
    #: ``(vc, watermark)`` when the sender is leaving: the steward
    #: stands in for it from this frame on.
    goodbye: Optional[tuple] = None


class Custody:
    """One node's protocol state, held at its steward."""

    __slots__ = ("records", "diffs", "applied", "roles", "claimed",
                 "acting")

    def __init__(self) -> None:
        #: The victim's interval index -> record, and
        #: (victim, interval, page) -> diff.  A crash restocks the
        #: victim from them; a drain's diffs serve stale-view
        #: requesters until the protocol's own GC clears them.
        self.records: Dict[int, object] = {}
        self.diffs: Dict[Tuple[int, int, int], object] = {}
        #: Triples the victim had applied as of its last frame.
        #: Re-applying a diff applied *after* it is value-idempotent,
        #: so the set only needs to be current to the previous sync
        #: operation.
        self.applied: Set[Tuple[int, int, int]] = set()
        #: Role state, replaced whole by the newest snapshot.
        self.roles = Roles(-1, {}, {}, {}, {})
        #: Tokens the steward claimed out of custody (they stay with
        #: the cluster; everything else returns at re-entry).
        self.claimed: Set[int] = set()
        #: The steward stands in for the victim (between a goodbye and
        #: the hand-back).
        self.acting = False


class _View:
    """One node's local picture of the cluster (views are per-node:
    changes propagate by messages, never by global state)."""

    __slots__ = ("absent", "prejoin", "seat", "steward", "watermark")

    def __init__(self, prejoin) -> None:
        #: Members between their leave and join announcements.
        self.absent: Set[int] = set()
        #: Planned joiners not yet announced.
        self.prejoin: Set[int] = set(prejoin)
        #: Current barrier seat (moves to the steward when the seat
        #: drains; monotonic — it never moves back, so in-flight
        #: arrivals can never race a reverting seat).
        self.seat: int = 0
        #: victim -> its steward and its drain watermark (its own
        #: highest interval index in custody), while absent.
        self.steward: Dict[int, int] = {}
        self.watermark: Dict[int, int] = {}


class AbsenceManager:
    """Scheduling, custody and re-entry for every planned absence."""

    def __init__(self, system, faults) -> None:
        self.sys = system
        n = self.n = system.nprocs
        mplan = faults.membership
        if n < 2 and faults.crashes:
            raise FaultPlanError(
                "NodeCrash recovery needs at least 2 processors "
                "(a lone processor has no survivors to recover from)")
        for c in faults.crashes:
            if not 0 <= c.pid < n:
                raise FaultPlanError(
                    f"NodeCrash pid {c.pid} out of range for nprocs={n}")
        if mplan is not None:
            mplan.validate_for(n, faults.crashes)
        #: pid -> (policy, event) for every planned absence.
        self._plan: Dict[int, tuple] = {
            c.pid: (CRASH, c) for c in faults.crashes}
        joins = () if mplan is None else \
            tuple(j for j in mplan.joins if j.t > 0)
        if mplan is not None:
            self._plan.update((d.pid, (DRAIN, d)) for d in mplan.drains)
            self._plan.update((j.pid, (JOIN, j)) for j in joins)
        #: Lifecycle per planned pid (a joiner starts out away);
        #: unplanned pids are implicitly "member".
        self._status: Dict[int, str] = {
            p: "away" if pol is JOIN else "pending"
            for p, (pol, _) in self._plan.items()}
        self.view: List[_View] = [
            _View(j.pid for j in joins) for _ in range(n)]
        #: victim -> its record, written only by the steward's custody
        #: handler (reading it anywhere else would cheat).
        self._custody: Dict[int, Custody] = {}
        #: pid -> requests that reached it while its state was in
        #: custody, replayed in arrival order after the install.
        self._deferred: Dict[int, List[tuple]] = {}
        #: pid -> peers whose re-entry reply is still outstanding.
        self._asking: Dict[int, List[int]] = {}
        #: Streaming senders' own bookkeeping: applied triples already
        #: shipped (so each frame carries a delta).
        self._applied_sent: Dict[int, Set[tuple]] = {}
        #: Cost meters, by policy wire prefix: [messages, bytes] shipped
        #: before going dark, and spent on the re-entry round.
        self.shipped = {"rec": [0, 0], "mem": [0, 0]}
        self.reentry = {"rec": [0, 0], "mem": [0, 0]}
        self.t_reentry = {"rec": 0.0, "mem": 0.0}
        self.realized: Dict[int, float] = {}    # pid -> departure time
        self.returned = {p.name: 0 for p in (CRASH, DRAIN, JOIN)}
        self.tokens_claimed = 0
        self.detector: Optional[AbsenceDetector] = None
        if mplan is not None:
            inj = system.net.injector
            self.detector = AbsenceDetector(
                system, mplan.heartbeat, inj.plan.seed,
                lambda m, p: p in self.view[m].prejoin
                or p in self.view[m].absent)
            # Static NIC-dark windows: a joiner is dark from t=0 to its
            # join, a silenced node for its silence window.  Drain
            # windows are appended at realization time; a crash's is
            # the plan's own reboot window.
            for j in joins:
                inj.dynamic.append(NodeOutage(j.pid, 0.0, j.t))
            for s in mplan.silences:
                inj.dynamic.append(NodeOutage(s.pid, s.t, s.t1))
        system.engine.add_debug_source(self.debug_lines)

    # ------------------------------------------------------------------
    # Views (every query is from one node's perspective).
    # ------------------------------------------------------------------

    def seat_of(self, viewer: int) -> int:
        """The barrier seat, as node ``viewer`` currently believes."""
        return self.view[viewer].seat

    def route(self, viewer: int, target: int) -> int:
        """Where ``viewer`` should send traffic meant for ``target``."""
        vw = self.view[viewer]
        return vw.steward[target] if target in vw.absent else target

    def manager_of(self, viewer: int, lid: int) -> int:
        """The node currently managing lock ``lid``, per ``viewer``."""
        return self.route(viewer, lid % self.n)

    def servers_of(self, viewer: int, w: int, entries) -> List[tuple]:
        """Who serves writer ``w``'s ``(page, interval)`` entries, as
        ``(serving pid, entries)`` groups in request order.

        While ``w`` is drained away its steward serves, out of custody,
        every interval at or below the drain watermark.  (Anything
        newer arrived via a stale third-party view — the writer is
        actually back, so a direct request delivers once its NIC
        returns.)
        """
        vw = self.view[viewer]
        if w not in vw.absent:
            return [(w, entries)]
        mark = vw.watermark[w]
        old = [(p, i) for (p, i) in entries if i <= mark]
        new = [(p, i) for (p, i) in entries if i > mark]
        return [(q, e) for q, e in ((vw.steward[w], old), (w, new)) if e]

    def _note_leave(self, viewer: int, victim: int, steward: int,
                    watermark: int) -> None:
        vw = self.view[viewer]
        vw.absent.add(victim)
        vw.steward[victim] = steward
        vw.watermark[victim] = watermark
        if vw.seat == victim:
            vw.seat = steward
        # A graceful goodbye is not a failure: hold the detector.
        self.detector.heard(viewer, victim)

    def _note_return(self, viewer: int, pid: int) -> None:
        vw = self.view[viewer]
        vw.prejoin.discard(pid)
        vw.absent.discard(pid)
        if self.detector is not None:
            self.detector.heard(viewer, pid)

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        """Register the absence handlers on one node."""
        ep = node.ep
        for kind, h in (("rec.custody", self._h_custody),
                        ("mem.custody", self._h_custody),
                        ("rec.ask", self._h_ask),
                        ("mem.ask", self._h_ask),
                        ("mem.leave", self._h_leave),
                        ("mem.join", self._h_join),
                        ("custody.diff_req", self._h_custody_diff)):
            ep.on(kind, lambda msg, h=h, node=node: h(node, msg))
        if self.detector is not None:
            self.detector.attach(node)
        pol = self._policy(node.pid)
        if pol is not None and pol.ships:
            self._wrap_deferrable(node)

    def _policy(self, pid: int) -> Optional[Policy]:
        return self._plan[pid][0] if pid in self._plan else None

    def _wrap_deferrable(self, node) -> None:
        """Park protocol requests that reach a node whose state is in
        custody.

        From the moment a node departs until its re-entry round has
        installed the custody copy, its diff store, routing tails and
        lock state are wiped or mid-handoff; a request delivered in
        that window (a retried frame landing right as the NIC returns)
        would read them.  Deferred requests replay, in arrival order,
        once the install completes.  Barrier arrivals are not deferred:
        the box install merges.
        """
        for kind in DEFERRABLE:
            handler, interrupt = node.ep.handlers[kind]

            def wrapped(msg, handler=handler, pid=node.pid):
                if self._status[pid] in ("away", "returning"):
                    self._deferred.setdefault(pid, []) \
                        .append((handler, msg))
                else:
                    handler(msg)

            node.ep.on(kind, wrapped, interrupt=interrupt)

    def start(self) -> None:
        if self.detector is not None:
            self.detector.start()

    def _send(self, node, dst: int, meter, kind: str, payload,
              size: int, tag=None) -> None:
        """Every absence frame — shipment, announcement, request or
        reply — is sent, and counted, here."""
        node.ep.send(dst, kind, payload=payload, size=size, tag=tag)
        meter[0] += 1
        meter[1] += size

    def _announce(self, node, meter, kind: str, payload,
                  size: int) -> None:
        for q in range(self.n):
            if q != node.pid:
                self._send(node, q, meter, kind, payload, size)

    # ------------------------------------------------------------------
    # Custody: shipping it (the absent node's side).
    # ------------------------------------------------------------------

    def streams(self, pid: int) -> bool:
        """Is ``pid`` streaming its custody record right now?  Such a
        node also diffs eagerly: a diff that exists only as a twin
        dies with the node."""
        pol = self._policy(pid)
        return pol is not None and pol.ships == "stream" \
            and self._status[pid] == "pending"

    def _ship(self, node, frame: Frame) -> int:
        """Send one custody frame to the steward; returns its size.

        The barrier box rides uncounted, as it always has in the
        drain handoff: every drain-master baseline that hands the seat
        over mid-episode is pinned to that size.
        """
        size = (interval_wire_bytes(frame.records)
                + diff_payload_bytes(frame.diffs)
                + APPLIED_ENTRY_BYTES * len(frame.applied) + 8)
        r = frame.roles
        if r is not None:
            size += 16 * (len(r.tokens) + len(r.tails)) + sum(
                12 + VC_ENTRY_BYTES * len(rvc)
                + (sreq.wire_bytes() if sreq is not None else 0)
                for q in r.pending.values() for (_, rvc, sreq) in q)
        if frame.goodbye is not None:
            size += VC_ENTRY_BYTES * self.n + 8
        pol = self._plan[node.pid][0]
        self._send(node, elect_steward(node.pid, self.n),
                   self.shipped[pol.wire], pol.wire + ".custody",
                   frame, size)
        return size

    def log_interval(self, node, rec) -> None:
        """Stream one closed interval (record + fresh diffs).

        Called by ``end_interval`` after its atomic section — sending
        mid-atomic could let an interrupt handler observe a bumped
        vector clock without its interval record.

        The frame also carries the delta of the node's *applied* set
        since the previous frame.  Re-entry restores it so the node
        never re-applies a diff that predates bytes it has since
        overwritten: an own write always closes an interval at the
        next sync operation (the crash-cut one included), so every
        apply that precedes an own write is at the steward before the
        crash.  Applies after the last frame replay idempotently.
        """
        pid = node.pid
        if not self.streams(pid):
            return
        diffs = tuple(
            node.diff_store[(pid, rec.index, p)] for p in rec.pages
            if (pid, rec.index, p) in node.diff_store)
        seen = self._applied_sent.setdefault(pid, set())
        delta = tuple(sorted(node.applied - seen))
        seen.update(delta)
        self._ship(node, Frame(pid, (rec,), diffs, delta))

    def mirror(self, node) -> None:
        """``node``'s lock/barrier role state changed: a streaming node
        ships the new snapshot before it does anything else, so the
        steward's copy is exact at whatever instant the crash strikes.
        """
        if self.streams(node.pid):
            self._ship(node, Frame(node.pid, roles=node.roles.snapshot()))

    # ------------------------------------------------------------------
    # The gate and the departure (the absent node's process context).
    # ------------------------------------------------------------------

    def gate(self, node) -> None:
        """Called at synchronization-operation entry: let a due event
        fire, if the cut is clean here.

        Events realize only at lock acquire/release, barrier and push
        entries.  At those points every previously validated region has
        fully executed its kernels, so the cut interval's WRITE_ALL
        (overwrite) claims are sound — realizing mid-region (at a
        validate or page-fault entry) could close an interval whose
        overwrite pages were claimed but not yet written, and their
        dominance would then propagate stale bytes to peers.  They
        also never realize inside an atomic protocol section or a
        nested protocol operation, and a ``quiesce`` policy leaves
        only between critical sections.
        """
        pid = node.pid
        if self._status.get(pid) != "pending":
            return
        pol, ev = self._plan[pid]
        if self.sys.engine.now < ev.t:
            return
        if node._atomic_depth > 0 or node._op_active:
            return
        if pol.quiesce and not node.roles.quiescent:
            return
        self._depart(node, pol, ev)

    def _depart(self, node, pol: Policy, ev) -> None:
        pid, engine = node.pid, self.sys.engine
        # Outstanding asynchronous fetches complete first: their
        # responses are addressed to pre-departure request tags and
        # carry data the program has already been promised.
        node.coherence.drain_async()
        # Close the open interval.  A cut-short one carries crash=True
        # on its tm.interval event so the sanitizer's partial-overwrite
        # rule knows; a streaming node logs it from end_interval.
        node.end_interval(crash=pol.wipes)
        if pol.ships == "handoff":
            # Materialize every diff of my own retained intervals:
            # custody must be able to serve them while I am unreachable.
            for rec in sorted((r for r in node.intervals.values()
                               if r.writer == pid),
                              key=lambda r: r.index):
                for p in rec.pages:
                    key = (pid, rec.index, p)
                    if key not in node.diff_store:
                        node.diff_store[key] = \
                            node._get_or_make_diff(p, rec.index)
        # From here on requests are deferred, not served: the flip
        # comes before the goodbye's snapshot, and nothing yields in
        # between.
        self._status[pid] = "away"
        self.realized[pid] = engine.now
        dark_until = self._goodbye(node, ev) \
            if pol.ships == "handoff" else ev.t1
        if pol.wipes:
            if node.tel is not None:
                node.tel.event(pid, "rec.crash", t_sched=ev.t,
                               reboot_us=ev.reboot_us)
            self._wipe(node)
        # The NIC is dark (the injector drops frames both ways); the
        # processor itself is busy "away" until the window ends.
        if engine.now < dark_until:
            node.proc.advance(dark_until - engine.now)
        self._reenter(node, pol, ev)

    def _goodbye(self, node, ev) -> float:
        """Ship the whole custody record, announce the leave, open the
        dark window; returns when it ends."""
        victim, engine = node.pid, self.sys.engine
        steward = elect_steward(victim, self.n)
        watermark = node.vc[victim]
        if self.view[victim].seat == victim:
            self.view[victim].seat = steward
        size = self._ship(node, Frame(
            victim, tuple(node.intervals.values()),
            tuple(d for k, d in node.diff_store.items()
                  if k[0] == victim),
            roles=node.roles.snapshot(),
            goodbye=(node._vc_tuple(), watermark)))
        self._announce(node, self.shipped["mem"], "mem.leave",
                       (victim, steward, watermark), 12)
        if node.tel is not None:
            node.tel.event(victim, "mem.leave", t_sched=ev.t,
                           away_us=ev.away_us, steward=steward,
                           watermark=watermark, handoff_bytes=size)
        # Dark window: strictly after the goodbye frames depart, so the
        # injector does not eat them.
        t_dark = max(engine.now, node.proc.busy_until) + 1e-6
        self.sys.net.injector.dynamic.append(
            NodeOutage(victim, t_dark, t_dark + ev.away_us))
        return t_dark + ev.away_us

    def _wipe(self, node) -> None:
        """Lose everything the DSM runtime kept in (volatile) memory.

        The program's own state — including its memory image, the locks
        it believes it holds, and its queued compiler hints — survives
        as the checkpoint the node reboots from; see docs/robustness.md
        for why re-entry only needs the *protocol* state back.
        """
        n = node.nprocs
        node.vc = [0] * n
        node._discard_history()
        node.dirty.clear()
        node.roles.clear()
        node.master_seen_vc = [0] * n
        for meta in node.pages:
            meta.valid = False
            meta.write_enabled = False
            meta.twin = None
            meta.dirty = False
            meta.overwrite = False
            meta.undiffed = None

    # ------------------------------------------------------------------
    # The re-entry round (the returning node's process context).
    # ------------------------------------------------------------------

    def startup(self, node) -> None:
        """Called in process context before ``main``: a planned joiner
        sleeps (NIC dark, no compute) until its join time."""
        if self._policy(node.pid) is JOIN:
            ev = self._plan[node.pid][1]
            node.proc.advance(ev.t)
            self._reenter(node, JOIN, ev)

    def _reenter(self, node, pol: Policy, ev) -> None:
        pid, engine = node.pid, self.sys.engine
        meter = self.reentry[pol.wire]
        self._status[pid] = "returning"
        t0 = engine.now
        if pol.hello == "first":
            self._announce(node, meter, "mem.join", pid, 8)
        peers = [q for q in range(self.n) if q != pid] \
            if pol.asks == "peer" else [elect_steward(pid, self.n)]
        node._req_seq += 1
        tag = node._req_seq
        self._asking[pid] = list(peers)
        for q in peers:
            self._send(node, q, meter, pol.wire + ".ask", pid, 8, tag)
        locks = 0       # lock tokens that came back out of custody
        for q in peers:
            msg = node.ep.recv(kind=pol.wire + ".state", src=q, tag=tag)
            vc, recs, back = msg.payload
            # Replaying everyone's notices invalidates exactly the
            # pages written while this node was away (all of them,
            # after a wipe — then without a single invalidation event).
            node.apply_notices(recs, vc)
            if back is not None:
                self._install(node, back)
                locks = len(back.roles.tokens)
            self._asking[pid].remove(q)
        del self._asking[pid]
        self._status[pid] = "member"
        self.returned[pol.name] += 1
        if pol.hello == "last":
            self._announce(node, meter, "mem.join", pid, 8)
        self.t_reentry[pol.wire] += engine.now - t0
        if node.tel is not None:
            # Cumulative cost counters ride along so a harness that only
            # sees the telemetry stream can report the cost.
            cost = self.summary()
            if pol.wipes:
                node.tel.event(
                    pid, "rec.recover", records=len(node.intervals),
                    diffs=len(node.diff_store),
                    locks=locks, dur_us=engine.now - t0,
                    **{k: cost[k] for k in ("log_messages", "log_bytes",
                                            "state_bytes")})
            else:
                node.tel.event(
                    pid, "mem.join",
                    **({"t_sched": ev.t} if pol is JOIN else {}),
                    how="join" if pol is JOIN else "rejoin",
                    dur_us=engine.now - t0,
                    handoff_messages=cost["handoff_messages"],
                    handoff_bytes=cost["handoff_bytes"])
        self._replay(pid)

    def _replay(self, pid: int) -> None:
        """Serve what was deferred, in arrival order."""
        for handler, msg in self._deferred.pop(pid, ()):
            handler(msg)

    def _install(self, node, back: Frame) -> None:
        """Take the custody copy back.  A merge throughout, so a
        re-delivered reply changes nothing."""
        node._store_diffs(back.diffs)
        node.apply_notices(back.records)
        # The checkpointed image already holds every byte the applied
        # diffs wrote, and marking them applied is what stops an
        # *older* diff from replaying on top of *newer* own bytes.
        node.applied.update(back.applied)
        node.roles.merge(back.roles)

    # ------------------------------------------------------------------
    # The peers' side: custody handler, announcements, the reply.
    # ------------------------------------------------------------------

    def _h_custody(self, node, msg) -> None:
        """Steward side: fold one frame into the victim's record.

        The delta merges (keyed, so idempotent); the role snapshot and
        the goodbye apply only if newer than what is held — a snapshot
        taken in process context can be overtaken on its way out by one
        a handler took later, and a re-delivered goodbye must not undo
        what the steward has done since.
        """
        node._charge(node.cfg.request_service)
        f: Frame = msg.payload
        cust = self._custody.setdefault(f.victim, Custody())
        cust.records.update((r.index, r) for r in f.records
                            if r.writer == f.victim)
        cust.diffs.update(((d.writer, d.interval, d.page), d)
                          for d in f.diffs)
        cust.applied.update(f.applied)
        if f.roles is None or f.roles.version <= cust.roles.version:
            return
        cust.roles = f.roles
        if f.goodbye is None:
            return
        # The victim left: stand in for it.
        vc, watermark = f.goodbye
        cust.acting = True
        plane = self.sys.net.onesided
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
        node.apply_notices(f.records, vc)
        self._note_leave(node.pid, f.victim, node.pid, watermark)
        # Its routing tails come with it and, if it held the barrier
        # seat, the arrivals it had collected.
        node.roles.adopt(cust.roles)

    def _h_leave(self, node, msg) -> None:
        node._charge(node.cfg.request_service)
        self._note_leave(node.pid, *msg.payload)

    def _h_join(self, node, msg) -> None:
        """A member (re)announced itself: it is reachable again."""
        node._charge(node.cfg.request_service)
        self._note_return(node.pid, msg.payload)

    def _h_ask(self, node, msg) -> None:
        """A returning node asks for what it missed: my retained
        records and clock and, if I am its steward, its custody."""
        node._charge(node.cfg.request_service)
        asker = msg.payload
        pol = self._plan[asker][0]
        recs = tuple(node.intervals.values())
        size = VC_ENTRY_BYTES * self.n + interval_wire_bytes(recs)
        back = None
        cust = self._custody.get(asker)
        if cust is not None and elect_steward(asker, self.n) == node.pid:
            cust.acting = False
            # Mark the asker present BEFORE replying: any request this
            # node re-forwards to it afterwards follows the reply on
            # the same FIFO channel, so it lands on installed state.
            self._note_return(node.pid, asker)
            tokens = {lid: False for lid in cust.claimed}
            tokens.update((lid, val)
                          for lid, val in cust.roles.tokens.items()
                          if lid not in cust.claimed)
            # While standing in, this node routed the victim's locks
            # with its own tail map.
            tails = {**cust.roles.tails, **node.roles.tails_of(asker)}
            back = Frame(asker, roles=Roles(cust.roles.version, tokens,
                                            tails, {}, {}))
            size += 16 * (len(tokens) + len(tails))
            if pol.wipes:
                # It lost its memory: everything goes back.
                back = back._replace(
                    records=tuple(cust.records.values()),
                    diffs=tuple(cust.diffs.values()),
                    applied=tuple(sorted(cust.applied)),
                    roles=cust.roles._replace(tokens=tokens,
                                              tails=tails))
                size += (interval_wire_bytes(back.records)
                         + diff_payload_bytes(back.diffs)
                         + APPLIED_ENTRY_BYTES * len(back.applied))
        self._send(node, msg.src, self.reentry[pol.wire],
                   pol.wire + ".state", (node._vc_tuple(), recs, back),
                   size, msg.tag)

    # ------------------------------------------------------------------
    # Custody services (lock tokens, diffs) while the steward stands in.
    # ------------------------------------------------------------------

    def claim_token(self, node, lid: int) -> bool:
        """Claim for ``node`` a token parked in a custody it stands in
        for; on ``True`` the caller holds it.

        One-shot per lock: after the claim the token lives with the
        cluster (normal tail routing takes over) and the hand-back
        returns ``False`` for it.  The default rule mirrors
        ``NodeRoles._has_token``: an untouched lock's token sits with
        its static manager.
        """
        for victim, cust in self._custody.items():
            if not cust.acting or lid in cust.claimed \
                    or elect_steward(victim, self.n) != node.pid:
                continue
            if cust.roles.tokens.get(lid, lid % self.n == victim):
                cust.claimed.add(lid)
                self.tokens_claimed += 1
                return True
        return False

    def _h_custody_diff(self, node, msg) -> None:
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
        """Barrier-time GC on ``pid``: drop the history it holds in
        custody (role state stays).

        Safe by the GC rendezvous: every processor has validated every
        page, so no pre-GC diff (or record) can ever be needed again —
        including by a processor that crashes later.
        """
        self._applied_sent.pop(pid, None)
        for victim, cust in self._custody.items():
            if elect_steward(victim, self.n) == pid:
                cust.records, cust.diffs, cust.applied = {}, {}, set()
        plane = self.sys.net.onesided
        if plane is not None:
            plane.deregister_where(pid, lambda k: k[0] == "cdiff")

    # ------------------------------------------------------------------
    # Diagnostics and reporting.
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """What absence cost, for the recover and elastic reports."""
        det = self.detector
        return {
            "log_messages": self.shipped["rec"][0],
            "log_bytes": self.shipped["rec"][1],
            "state_bytes": self.reentry["rec"][1],
            "t_recovery_us": self.t_reentry["rec"],
            "realized": dict(sorted(self.realized.items())),
            "handoff_messages": (self.shipped["mem"][0]
                                 + self.reentry["mem"][0]),
            "handoff_bytes": (self.shipped["mem"][1]
                              + self.reentry["mem"][1]),
            "tokens_claimed": self.tokens_claimed,
            "crashes": self.returned["crash"],
            "joins": self.returned["join"],
            "drains": self.returned["drain"],
            "beats_sent": det.beats_sent if det else 0,
            "suspicions": det.suspicions if det else 0,
            "evictions": det.evictions if det else 0,
            "admissions": det.admissions if det else 0,
            "detect_us": max(det.detect_us) if det and det.detect_us
            else 0.0,
        }

    def debug_lines(self) -> List[str]:
        """Absence state for the engine's deadlock dump."""
        out: List[str] = []
        for pid in sorted(self._plan):
            pol, ev = self._plan[pid]
            parts = [f"absence P{pid}: {pol.name} {self._status[pid]} "
                     f"(due t={ev.t:g})"]
            if pid in self._asking:
                parts.append("awaiting state from " + ",".join(
                    f"P{q}" for q in self._asking[pid]))
            if self._deferred.get(pid):
                parts.append(
                    f"{len(self._deferred[pid])} deferred requests")
            out.append("; ".join(parts))
        for victim, cust in sorted(self._custody.items()):
            out.append(
                f"custody of P{victim} at "
                f"P{elect_steward(victim, self.n)}: "
                f"{'acting' if cust.acting else 'held'}, "
                f"{len(cust.records)} intervals / {len(cust.diffs)} "
                f"diffs, roles v{cust.roles.version}, "
                f"{len(cust.claimed)} tokens claimed")
        det = self.detector
        bad = {p: v for p, v in det.verdict.items() if v != "member"} \
            if det else {}
        if bad:
            out.append("detector verdicts: " + ", ".join(
                f"P{p}={v}" for p, v in sorted(bad.items())))
        return out
