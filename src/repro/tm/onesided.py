"""Protocol lowering onto the one-sided data plane.

When a run asks for ``data_plane="onesided"``, every :class:`TmNode`
owns a :class:`NodeOneSided` (``node.osl``) that re-lowers the three
hottest protocol paths onto RDMA-style ops from
:mod:`repro.net.onesided`, with the classic two-sided handlers kept as
the fallback for every case a NIC cannot decide alone:

* **Diff / page fetches** become batched one-sided *reads*.  A writer
  registers a ``("diff", interval, page)`` value window for every diff
  it encodes (diffing turns eager at interval end — the NIC cannot run
  the writer's encoder on demand, so the lazy-diff optimization is
  traded for zero-CPU serving, the classic RDMA-DSM trade).  WRITE_ALL
  intervals never encode a diff; the fetcher reads the page straight
  out of the writer's ``("image",)`` byte window instead.  Under hlrc
  the home's image window carries a *guard* that only serves clean
  pages it homes — any other read misses and falls back to the
  two-sided ``page_req``.

* **Push rounds** become doorbell-coalesced one-sided *writes* into the
  receiver's ``("push",)`` staging window.  The NIC deposit never
  touches the receiver's image directly — the receiver installs the
  staged payload from process context at its matching receive point,
  exactly where the two-sided protocol would have.

* **Lock grants** become a CAS spinlock on the manager's
  ``("lock", lid)`` window (one token word plus a *meta* value slot).
  A release posts one fire-and-forget batch ``[write(meta),
  cas(state, 1->0)]``; in-batch program order guarantees any acquirer
  whose CAS wins observes the newest meta.  The meta carries the
  releaser's ``(release_vc, base_vc, records, gc_round)`` so the
  acquirer imports the happens-before knowledge the two-sided grant
  would have shipped; ``base_vc`` is the releaser's last-barrier vector
  clock, which every concurrently-running processor is guaranteed to
  dominate (it cannot be past a barrier the acquirer has not reached),
  so the coverage check virtually always passes.  When it does not —
  and for a meta tagged with a pre-GC round, whose records the
  collection already subsumed — the acquirer falls back to a two-sided
  ``lock_sync`` exchange with the releaser.  Locks stay fully
  two-sided under elastic membership (the steward/custody choreography
  is inherently manager-mediated).

Every lowering counts into ``TmStats.onesided_*`` so the data plane's
fast-path/fallback split is observable per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net import onesided as ops
from repro.tm.meta import interval_wire_bytes, VC_ENTRY_BYTES

#: Deterministic spin backoff between CAS retries on a held lock
#: (simulated microseconds; roughly one wire round trip).
LOCK_BACKOFF_US = 90.0


class NodeOneSided:
    """One node's lowering state on the one-sided data plane."""

    def __init__(self, node) -> None:
        self.node = node
        self.plane = node.sys.net.onesided
        #: Staged one-sided Push deposits: (sender, round) -> payload.
        self._push_box: Dict[Tuple[int, int], tuple] = {}
        #: Lock ids whose manager-side window this node knows exists
        #: (first contact runs a two-sided ``lock_win`` handshake so a
        #: wild CAS on a truly unknown window stays a typed error).
        self._lock_known: set = set()
        #: The whole private image, readable remotely.  mw-lrc leaves
        #: it open (WRITE_ALL page reads); hlrc installs a home guard.
        self.image_window = self.plane.register(
            node.pid, ("image",), nbytes=node.layout.total_bytes,
            reader=lambda off, length: node.image.read_bytes(
                off, off + length))
        self.plane.register(node.pid, ("push",),
                            on_write=self._push_deposit)
        self.plane.register(node.pid, ("donate",),
                            on_write=self._donate_deposit)
        node.ep.on("lock_win", self._h_lock_win)
        node.ep.on("lock_sync", self._h_lock_sync)

    # ------------------------------------------------------------------
    # Diff windows (mw-lrc fetch path).
    # ------------------------------------------------------------------

    def publish_diff(self, interval: int, page: int, diff) -> None:
        """Expose a freshly-encoded own diff for remote one-sided reads."""
        self.plane.register(self.node.pid, ("diff", interval, page),
                            value=diff, nbytes=diff.wire_bytes)

    # ------------------------------------------------------------------
    # Push staging (NIC deposit -> process-context install).
    # ------------------------------------------------------------------

    def _push_deposit(self, value, nbytes: int) -> None:
        sender, round_tag, sender_index, payload = value
        self._push_box[(sender, round_tag)] = (sender_index, payload)
        self.node.proc.wake()

    def push_send(self, q: int, index: Optional[int], payload: tuple,
                  size: int, round_tag: int) -> None:
        """One doorbell-coalesced write delivers the whole per-peer
        payload; no interrupt, no handler CPU at the receiver."""
        node = self.node
        self.plane.post(
            node.pid, q,
            [ops.write(("push",),
                       (node.pid, round_tag, index, payload), size)],
            sync=False)
        node.stats.onesided_writes += 1

    def take_push(self, q: int, round_tag: int) -> tuple:
        """Block until P``q``'s round-``round_tag`` deposit is staged."""
        node = self.node
        key = (q, round_tag)
        while key not in self._push_box:
            node.proc.waiting_on = (
                f"one-sided push from P{q} (round {round_tag})")
            node.proc.wait()
        node.proc.waiting_on = None
        node.charge("rdma.poll", node.cfg.rdma_poll_cost)
        return self._push_box.pop(key)

    # ------------------------------------------------------------------
    # Diff donation (sync+data merge) as one-sided writes.
    # ------------------------------------------------------------------

    def _donate_deposit(self, value, nbytes: int) -> None:
        # A diff-store insert is idempotent and touches no page state,
        # so the NIC may run it directly; the wake lets a
        # complete_wsync blocked on these diffs re-check its set.
        self.node._store_diffs(value)
        self.node.proc.wake()

    def donate_send(self, req: int, diffs: tuple, size: int) -> None:
        self.plane.post(self.node.pid, req,
                        [ops.write(("donate",), tuple(diffs), size)],
                        sync=False)
        self.node.stats.onesided_writes += 1

    # ------------------------------------------------------------------
    # Locks: CAS spinlock with a release-meta coverage chain.
    # ------------------------------------------------------------------

    def _lock_window(self, lid: int):
        """Manager side: materialize the lock's window on first use."""
        key = ("lock", lid)
        win = self.plane.window(self.node.pid, key)
        if win is None:
            win = self.plane.register(self.node.pid, key,
                                      words={"state": 0})

            def deposit(value, nbytes, win=win):
                win.value = value
                win.nbytes = nbytes

            win.on_write = deposit
        return win

    def _h_lock_win(self, msg: Message) -> None:
        """First-contact handshake: create the window, ack."""
        lid = msg.payload
        self.node.charge("cpu.lock", self.node.cfg.lock_service)
        self._lock_window(lid)
        self.node.ep.send(msg.src, "lock_win_ack", payload=lid,
                          size=4, tag=lid)

    def _ensure_remote_lock(self, lid: int, manager: int) -> None:
        if lid in self._lock_known:
            return
        node = self.node
        node.ep.send(manager, "lock_win", payload=lid, size=8, tag=lid)
        node.ep.recv(kind="lock_win_ack", tag=lid)
        self._lock_known.add(lid)

    def _backoff(self, lid: int) -> None:
        node = self.node
        eng = node.sys.engine
        target = eng.now + LOCK_BACKOFF_US
        eng.call_at(target, node.proc.wake)
        while eng.now < target:
            node.proc.waiting_on = f"lock {lid} backoff (held)"
            node.proc.wait()
        node.proc.waiting_on = None

    def lock_acquire(self, lid: int) -> None:
        node = self.node
        stats = node.stats
        manager = lid % node.nprocs
        key = ("lock", lid)
        t0 = node.sys.engine.now
        if manager == node.pid:
            win = self._lock_window(lid)
            node.charge("cpu.lock_local", node.cfg.local_lock_cost)
            while win.words["state"] != 0:
                stats.onesided_lock_retries += 1
                self._backoff(lid)
            # No yield between the check above and the take below: the
            # token word flips atomically from this process's view.
            # Not a "local acquire" in the stats sense: the token was
            # last freed by a remote CAS, so this is a real hand-off
            # (the grant edge below carries the happens-before).
            win.words["state"] = 1
            meta = win.value
        else:
            self._ensure_remote_lock(lid, manager)
            while True:
                swapped_res, meta_res = self.plane.post(
                    node.pid, manager,
                    [ops.cas(key, "state", 0, 1), ops.read(key)])
                if swapped_res[1]:
                    meta = meta_res[1]
                    break
                stats.onesided_lock_retries += 1
                self._backoff(lid)
        if node.tel is not None:
            # The winning CAS *is* the grant: emit the hand-off edge
            # here (not at acquire entry) so the sanitizer joins the
            # releaser's clock at the moment the token changed hands.
            node.tel.event(node.pid, "tm.lock_grant", lid=lid,
                           to=node.pid)
        stats.onesided_lock_fast += 1
        node._waited("wait.lock", t0)
        self._consume_meta(lid, meta)
        node.roles.held.add(lid)

    def _consume_meta(self, lid: int, meta) -> None:
        node = self.node
        if meta is None:
            return      # never released yet: nothing to import
        releaser, release_vc, base_vc, recs, gc_round = meta
        if gc_round < node.gc_rounds:
            # The records predate a GC barrier this node has passed;
            # that barrier already shipped everything they carried.
            return
        if all(node.vc[i] >= base_vc[i] for i in range(node.nprocs)):
            node.apply_notices(recs, release_vc)
            return
        # Coverage miss: pull the gap from the releaser, two-sided.
        node.stats.onesided_fallbacks += 1
        t0 = node.sys.engine.now
        node.ep.send(releaser, "lock_sync",
                     payload=(lid, node._vc_tuple()),
                     size=8 + VC_ENTRY_BYTES * node.nprocs, tag=lid)
        msg = node.ep.recv(kind="lock_sync_grant", tag=lid)
        node._waited("wait.lock", t0)
        granter_vc, recs = msg.payload
        node.apply_notices(recs, granter_vc)

    def _h_lock_sync(self, msg: Message) -> None:
        node = self.node
        lid, rvc = msg.payload
        node.charge("cpu.lock", node.cfg.lock_service)
        recs = node._intervals_after(rvc)
        node.ep.send(msg.src, "lock_sync_grant",
                     payload=(node._vc_tuple(), tuple(recs)),
                     size=(VC_ENTRY_BYTES * node.nprocs
                           + interval_wire_bytes(recs)), tag=lid)

    def lock_release(self, lid: int) -> None:
        node = self.node
        node.roles.held.discard(lid)
        manager = lid % node.nprocs
        key = ("lock", lid)
        base_vc = tuple(node.master_seen_vc)
        recs = tuple(node._intervals_after(base_vc))
        meta = (node.pid, node._vc_tuple(), base_vc, recs,
                node.gc_rounds)
        nbytes = (8 + 2 * VC_ENTRY_BYTES * node.nprocs
                  + interval_wire_bytes(recs))
        if manager == node.pid:
            win = self._lock_window(lid)
            if win.words["state"] != 1:
                raise ProtocolError(
                    f"P{node.pid} releasing lock {lid} but its token "
                    f"word is {win.words['state']!r}")
            node.charge("cpu.lock_local", node.cfg.local_lock_cost)
            win.value = meta
            win.nbytes = nbytes
            win.words["state"] = 0
        else:
            # In-batch program order: the meta write lands before the
            # token word flips, so the winning CAS reads this meta.
            self.plane.post(node.pid, manager,
                            [ops.write(key, meta, nbytes),
                             ops.cas(key, "state", 1, 0)],
                            sync=False)
