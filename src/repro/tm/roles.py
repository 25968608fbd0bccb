"""Lock and barrier *role state*, and the protocols that run on it.

Besides running its program every node plays synchronization roles no
coherence backend cares about: lock client, static manager of the locks
``lid % nprocs == pid``, link in a lock's request chain and — one node
at a time — barrier master.  The state those roles keep has one owner
per node, :class:`NodeRoles` (``node.roles``); ``TmNode`` keeps what
every synchronization operation shares (the absence gate, interval
close, ``Validate_w_sync``, the GC rendezvous) and calls in here.

The state outlives the node's presence, so :mod:`repro.absence` takes
custody of it — through :meth:`~NodeRoles.snapshot` (a :class:`Roles`),
:meth:`~NodeRoles.merge`, :meth:`~NodeRoles.adopt`,
:meth:`~NodeRoles.clear`, :attr:`~NodeRoles.quiescent` and, for the
hand-back, :meth:`~NodeRoles.tails_of`; never field by field.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.net.message import Message
from repro.tm.coherence import SyncFetchRequest
from repro.tm.diffs import Diff, diff_payload_bytes
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES

#: The static barrier master (the seat, until it drains away).
MASTER_PID = 0

#: One queued lock request: (requester, its vc, its piggy-backed fetch).
LockRequest = Tuple[int, Tuple[int, ...], Optional[SyncFetchRequest]]


class Roles(NamedTuple):
    """A versioned snapshot of one node's lock/barrier role state."""

    version: int
    #: Explicit lock tokens, lid -> held here?
    tokens: Dict[int, bool]
    #: Manager-side routing tails of the locks it manages.
    tails: Dict[int, int]
    #: Lock requests queued at it, lid -> ((requester, rvc, sreq), ...).
    pending: Dict[int, tuple]
    #: Barrier arrival box (empty unless it holds the seat).
    box: Dict[int, tuple]


class NodeRoles:
    """One node's lock protocol (client and manager) and barrier master."""

    def __init__(self, node) -> None:
        self.node = node
        # --- locks -----------------------------------------------------
        self.token: Dict[int, bool] = {}
        self.held: Set[int] = set()
        self.pending: Dict[int, List[LockRequest]] = {}
        self.tail: Dict[int, int] = {}   # manager-side chain tail
        # --- barrier ---------------------------------------------------
        self.box: Dict[int, tuple] = {}
        #: Snapshots taken so far (a later one supersedes an earlier).
        self._version = 0
        ep = node.ep
        ep.on("lock_req", self._h_lock_req)
        ep.on("lock_fwd", self._h_lock_fwd)
        # Under absence the barrier seat can move, so every node must be
        # able to receive (and relay) arrivals, not just the static
        # master.
        if node.pid == MASTER_PID or node.absence is not None:
            ep.on("barrier_arrive", self._h_barrier_arrive,
                  interrupt=False)

    # ==================================================================
    # Custody: everything repro.absence may do to the state.
    # ==================================================================

    def _changed(self) -> None:
        """A protocol moment changed this state (grant received, release
        hand-off, request routed, forward served, arrival boxed, box
        taken): a crash-pending node streams a snapshot to its steward.
        Once per moment, not per field — each is a frame on the wire."""
        absence = self.node.absence
        if absence is not None:
            absence.mirror(self.node)

    def tails_of(self, home: int) -> Dict[int, int]:
        """The chain tails held here for the locks ``home`` manages."""
        n = self.node.nprocs
        return {lid: t for lid, t in self.tail.items() if lid % n == home}

    def snapshot(self) -> Roles:
        """The state as of now.  Only the tails of the locks this node
        manages travel: they are what a stand-in routes by."""
        self._version += 1
        return Roles(
            self._version, dict(self.token), self.tails_of(self.node.pid),
            {lid: tuple(q) for lid, q in self.pending.items() if q},
            dict(self.box))

    def adopt(self, roles: Roles) -> None:
        """Stand in for the node ``roles`` came from: route its locks
        by its tails and, if it held the barrier seat, take over the
        arrivals it had collected."""
        self.tail.update(roles.tails)
        for q, entry in roles.box.items():
            self.box.setdefault(q, entry)
        if len(self.box) == self.node.nprocs:
            self.node.proc.wake()

    def merge(self, roles: Roles) -> None:
        """Take a snapshot of this node's own state back.  A merge
        throughout: a re-delivered one changes nothing, and a request
        queued here meanwhile is never dropped."""
        self.token.update(roles.tokens)
        for lid, queue in roles.pending.items():
            mine = self.pending.setdefault(lid, [])
            mine.extend(e for e in queue if e not in mine)
        self.adopt(roles)

    def clear(self) -> None:
        """Lose the state with the rest of volatile memory.  The locks
        the *program* believes it holds survive (they are part of the
        checkpoint it reboots from)."""
        self.token.clear()
        self.pending.clear()
        self.tail.clear()
        self.box.clear()

    @property
    def quiescent(self) -> bool:
        """Between critical sections: no lock held, none queued here."""
        return not (self.held or any(self.pending.values()))

    # ==================================================================
    # Locks (distributed queue with manager forwarding).
    # ==================================================================

    def _has_token(self, lid: int) -> bool:
        node = self.node
        return self.token.get(lid, lid % node.nprocs == node.pid)

    def _manager_of(self, lid: int) -> int:
        """Acting manager of ``lid``: the static home, or its steward
        while the home is drained away."""
        node = self.node
        if node.absence is not None:
            return node.absence.manager_of(node.pid, lid)
        return lid % node.nprocs

    def acquire(self, lid: int, sreq: Optional[SyncFetchRequest]) -> None:
        node = self.node
        if self._has_token(lid) and lid not in self.held:
            # Re-acquiring the lock we released last: purely local.
            node._charge(node.cfg.local_lock_cost)
            node.stats.lock_local_acquires += 1
            self.held.add(lid)
            return
        manager = self._manager_of(lid)
        rvc = node._vc_tuple()
        size = (8 + VC_ENTRY_BYTES * node.nprocs
                + (sreq.wire_bytes() if sreq else 0))
        if manager == node.pid:
            node._charge(node.cfg.lock_service)
            self._route(lid, node.pid, rvc, sreq)
        else:
            node.ep.send(manager, "lock_req",
                         payload=(lid, node.pid, rvc, sreq),
                         size=size)
        t0 = node.sys.engine.now
        msg = node.ep.recv(kind="lock_grant", tag=lid)
        node.stats.t_lock_wait += node.sys.engine.now - t0
        if node.tel is not None:
            node.tel.span(node.pid, "wait.lock", t0,
                          node.sys.engine.now)
        granter_vc, recs, donated = msg.payload
        node._store_diffs(donated)
        node.apply_notices(recs, granter_vc)
        self.token[lid] = True
        self.held.add(lid)
        self._changed()

    def release(self, lid: int) -> None:
        self.held.discard(lid)
        pending = self.pending.get(lid)
        if pending:
            requester, rvc, sreq = pending.pop(0)
            self._grant(lid, requester, rvc, sreq)
            self._changed()

    def _h_lock_req(self, msg: Message) -> None:
        lid, requester, rvc, sreq = msg.payload
        self.node._charge(self.node.cfg.lock_service)
        self._route(lid, requester, rvc, sreq)

    def _route(self, lid: int, requester: int, rvc: Tuple[int, ...],
               sreq: Optional[SyncFetchRequest]) -> None:
        node = self.node
        size = (8 + VC_ENTRY_BYTES * node.nprocs
                + (sreq.wire_bytes() if sreq else 0))
        if node.absence is not None:
            owner = self._manager_of(lid)
            if owner != node.pid and lid % node.nprocs != node.pid:
                # Stale-view request: the requester still thought we
                # were stewarding this lock's (now returned) home.
                node.ep.send(owner, "lock_req",
                             payload=(lid, requester, rvc, sreq),
                             size=size)
                return
        tail = self.tail.get(lid, lid % node.nprocs)
        self.tail[lid] = requester
        target = tail if node.absence is None \
            else node.absence.route(node.pid, tail)
        if target == node.pid:
            self._give_or_queue(lid, requester, rvc, sreq)
        else:
            node.ep.send(target, "lock_fwd",
                         payload=(lid, requester, rvc, sreq), size=size)
        self._changed()

    def _h_lock_fwd(self, msg: Message) -> None:
        lid, requester, rvc, sreq = msg.payload
        self.node._charge(self.node.cfg.lock_service)
        self._give_or_queue(lid, requester, rvc, sreq)
        self._changed()

    def _give_or_queue(self, lid: int, requester: int,
                       rvc: Tuple[int, ...],
                       sreq: Optional[SyncFetchRequest]) -> None:
        absence = self.node.absence
        if absence is not None and not self._has_token(lid) \
                and absence.claim_token(self.node, lid):
            # The token was parked in a drained node's custody we
            # steward; the claim moves it to this node.
            self.token[lid] = True
        if self._has_token(lid) and lid not in self.held:
            self._grant(lid, requester, rvc, sreq)
        else:
            self.pending.setdefault(lid, []).append(
                (requester, rvc, sreq))

    def _grant(self, lid: int, requester: int, rvc: Tuple[int, ...],
               sreq: Optional[SyncFetchRequest]) -> None:
        node = self.node
        if node.tel is not None:
            node.tel.event(node.pid, "tm.lock_grant", lid=lid,
                           to=requester)
        recs = node._intervals_after(rvc)
        donated: List[Diff] = []
        if sreq is not None:
            donated = node.coherence.collect_donation(sreq)
        size = (VC_ENTRY_BYTES * node.nprocs + interval_wire_bytes(recs)
                + diff_payload_bytes(donated))
        node.ep.send(requester, "lock_grant",
                     payload=(node._vc_tuple(), tuple(recs),
                              tuple(donated)),
                     size=size, tag=lid)
        self.token[lid] = False

    # ==================================================================
    # Barrier master (centralized; notices merged and redistributed).
    # ==================================================================

    def current_master(self) -> int:
        """Acting barrier master (the seat moves when it drains)."""
        node = self.node
        if node.absence is not None:
            return node.absence.seat_of(node.pid)
        return MASTER_PID

    def barrier_as_master(self, sreq: Optional[SyncFetchRequest],
                          extra) -> None:
        """The master's own barrier: box its arrival, wait for everyone
        else's, run the episode."""
        node = self.node
        self.box[node.pid] = (node._vc_tuple(), (), sreq, extra)
        t0 = node.sys.engine.now
        while len(self.box) < node.nprocs:
            absent = sorted(set(range(node.nprocs)) - set(self.box))
            node.proc.waiting_on = (
                f"barrier arrivals from "
                f"{['P%d' % p for p in absent]}")
            node.proc.wait()
        node.proc.waiting_on = None
        node.stats.t_barrier_wait += node.sys.engine.now - t0
        if node.tel is not None:
            node.tel.span(node.pid, "wait.barrier", t0,
                          node.sys.engine.now)
        self.barrier_finish()

    def await_depart_or_seat(self) -> Optional[Message]:
        """Client-side barrier wait under elastic membership.

        Normally returns the ``barrier_depart`` message.  Returns
        ``None`` when the barrier seat migrated to this node while it
        was blocked (the previous seat drained away mid-episode) and
        every arrival — including this node's own, relayed back by the
        departing seat — has reached its box.
        """
        node = self.node
        while True:
            msg = node.ep.try_recv(kind="barrier_depart")
            if msg is not None:
                return msg
            if (self.current_master() == node.pid
                    and len(self.box) == node.nprocs):
                return None
            node.proc.waiting_on = "barrier departure (or seat handoff)"
            node.proc.wait()
            node.proc.waiting_on = None

    def _h_barrier_arrive(self, msg: Message) -> None:
        node = self.node
        pid, vc, recs, sreq, extra = msg.payload
        node._charge(node.cfg.barrier_arrival_service)
        if node.absence is not None:
            seat = self.current_master()
            if seat != node.pid:
                # The seat moved while this arrival was in flight (the
                # sender's view was stale): relay it to the new master.
                node.ep.send(seat, "barrier_arrive", payload=msg.payload,
                             size=msg.size)
                return
        self.box[pid] = (vc, recs, sreq, extra)
        self._changed()
        if len(self.box) == node.nprocs:
            node.proc.wake()

    def barrier_finish(self) -> None:
        """Master, process context: merge notices, send departures."""
        node = self.node
        box, self.box = self.box, {}
        self._changed()
        for q in sorted(box):
            if q == node.pid:
                continue
            qvc, recs, _, _ = box[q]
            node.apply_notices(recs, qvc)
        if node.osl is not None:
            # The merged clock is the lock-release coverage floor: any
            # processor running past this barrier dominates it, so a
            # release meta based on it always passes the coverage check
            # (clients record it at depart; the master records it here).
            node.master_seen_vc = list(node.vc)
        sreqs = tuple(entry[2] for _, entry in sorted(box.items())
                      if entry[2] is not None)
        plan = node.coherence.barrier_plan(
            {q: entry[3] for q, entry in box.items()})
        gc_now = (node.gc_threshold is not None
                  and len(node.intervals) >= node.gc_threshold)
        for q in sorted(box):
            if q == node.pid:
                continue
            qvc = box[q][0]
            recs = node._intervals_after(qvc)
            size = (VC_ENTRY_BYTES * node.nprocs
                    + interval_wire_bytes(recs)
                    + sum(r.wire_bytes() for r in sreqs)
                    + node.coherence.barrier_plan_bytes(plan))
            node.ep.send(q, "barrier_depart",
                         payload=(node._vc_tuple(), tuple(recs), sreqs,
                                  gc_now, plan),
                         size=size)
        node.coherence.donate_for_requests(sreqs)
        if plan is not None:
            node.coherence.apply_barrier_plan(plan)
        if gc_now:
            # Two-phase collection: nobody discards until everyone has
            # validated (a discarded diff could otherwise still be
            # requested mid-collection).
            node._gc_validate()
            for q in range(node.nprocs):
                if q != node.pid:
                    node.ep.recv(kind="gc_done", src=q)
            for q in range(node.nprocs):
                if q != node.pid:
                    node.ep.send(q, "gc_discard", size=0)
            node._gc_discard()
