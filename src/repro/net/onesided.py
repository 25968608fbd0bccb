"""One-sided data plane: RDMA-style remote read/write/CAS/FAA.

The two-sided paths in :mod:`repro.net.network` model the SP/2's MPL:
every request schedules the destination *process* (interrupt + handler
CPU, or a mailbox receive).  This module models a modern RDMA NIC
instead: an initiator posts operations against **registered memory
windows** on a destination node, and the destination NIC services them
without ever scheduling the destination process.

Concepts
--------

* **Window** — a named region a node has registered for remote access.
  Three capability flavors (a window may combine them):

  - *value* windows hold one Python object of a declared byte size
    (a diff, a record list); a read returns the whole object.
  - *byte* windows expose a ``reader(off, length) -> bytes`` over a
    declared extent (a node's memory image); reads are range-checked.
  - *word* windows hold a small dict of atomic fields; ``cas`` and
    ``faa`` operate on them (lock/token words).

  Writable windows declare an ``on_write(value, nbytes)`` deposit
  callback (push staging buffers).  An op against an unregistered
  window, a non-capable window, or an out-of-bounds range is a typed
  :class:`~repro.errors.WindowError` naming the window and the
  offending range — never silent corruption.  An optional ``guard``
  predicate lets the owner veto serving (e.g. a home refusing to serve
  an invalid copy); a vetoed op completes as a *miss*, which the
  initiator treats as "fall back to the two-sided handler path".

* **Batch / doorbell** — ops issued to one destination in one sync
  phase ride a single ``rdma.batch`` frame (one doorbell ring, one
  wire crossing).  The destination NIC executes the ops **in posted
  order** (per-(src,dst) program order within a batch), serially per
  NIC (a busy NIC queues the next batch).  Synchronous batches get one
  ``rdma.cmpl`` completion frame back; posted write batches are
  fire-and-forget.

* **Transport** — frames travel through :meth:`Network._transmit`, so
  with a fault plan they ride the reliable transport's sequencing,
  dedup and retransmission like any other frame: one-sided ops are
  exactly-once even on a lossy fabric.  Retransmissions of one-sided
  frames are NIC-autonomous (no sender CPU stolen, not re-counted).

Accounting
----------

One-sided frames are deliberately **not** counted in
``NetStats.messages`` / ``net.msg``: those books count CPU-involving
messages, which is exactly what this plane eliminates.  Dedicated
counters (``onesided_ops`` / ``onesided_batches`` / ``onesided_bytes``
/ ``onesided_cas_failures``) are bumped at the same sites that emit
the ``net.rdma.*`` telemetry events, so the inspector reconciles them
exactly:

========================  ============================================
counter                   telemetry rule
========================  ============================================
``onesided_batches``      one ``net.rdma.batch`` event per batch
``onesided_ops``          one ``net.rdma.op`` event per op
``onesided_bytes``        sum of ``bytes`` over ``net.rdma.op`` (write
                          payloads, at post) + ``net.rdma.cmpl`` (read
                          results, at completion)
``onesided_cas_failures``  one ``net.rdma.cas_fail`` event per failure
========================  ============================================

Cost model: the initiator pays ``rdma_post_cost`` per batch (doorbell)
and ``rdma_poll_cost`` per reaped completion; the destination NIC
takes ``rdma_op_service`` per op with **zero** destination CPU; each
op adds ``rdma_op_bytes`` of descriptor to the frame.  See
``docs/networking.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError, WindowError
from repro.net.message import Message

#: Wire kinds of the one-sided plane.  Routed by
#: :meth:`Network._deliver` to the plane (never to handlers/mailboxes)
#: and excluded from two-sided message accounting.
BATCH_KIND = "rdma.batch"
CMPL_KIND = "rdma.cmpl"


# ----------------------------------------------------------------------
# Op constructors (the wire representation is a plain tuple).
# ----------------------------------------------------------------------

def read(key: Any, off: Optional[int] = None,
         length: Optional[int] = None) -> tuple:
    """Read a window: whole value, or ``[off, off+length)`` of a byte
    window."""
    return ("read", key, off, length)


def write(key: Any, value: Any, nbytes: int) -> tuple:
    """Deposit ``value`` (``nbytes`` on the wire) into a writable
    window."""
    return ("write", key, value, nbytes)


def cas(key: Any, fld: Any, expect: Any, new: Any) -> tuple:
    """Atomic compare-and-swap on one word of a word window."""
    return ("cas", key, fld, expect, new)


def faa(key: Any, fld: Any, delta: Any) -> tuple:
    """Atomic fetch-and-add on one word of a word window."""
    return ("faa", key, fld, delta)


class Window:
    """One registered remote-access region on a node."""

    __slots__ = ("key", "nbytes", "value", "reader", "on_write",
                 "words", "guard")

    def __init__(self, key: Any, value: Any = None, nbytes: int = 0,
                 reader: Optional[Callable[[int, int], Any]] = None,
                 on_write: Optional[Callable[[Any, int], None]] = None,
                 words: Optional[Dict[Any, Any]] = None,
                 guard: Optional[Callable[[tuple], bool]] = None) -> None:
        self.key = key
        self.value = value
        self.nbytes = nbytes
        self.reader = reader
        self.on_write = on_write
        self.words = words
        self.guard = guard


class _Pending:
    """Initiator-side state of one synchronous batch."""

    __slots__ = ("done", "results", "error")

    def __init__(self) -> None:
        self.done = False
        self.results: Optional[List[tuple]] = None
        self.error: Optional[str] = None


class OneSidedPlane:
    """The one-sided data plane of one :class:`Network`.

    Constructed only when the run asks for ``data_plane="onesided"``;
    the default two-sided mode never instantiates it (and stays
    byte-identical to a build without this module).
    """

    def __init__(self, net) -> None:
        self.net = net
        self.engine = net.engine
        #: Registered windows, per owning pid.
        self._windows: Dict[int, Dict[Any, Window]] = {}
        #: Per-destination NIC busy horizon (batches service serially).
        self._nic_free: Dict[int, float] = {}
        self._pending: Dict[int, _Pending] = {}
        self._next_batch = 0

    # ------------------------------------------------------------------
    # Window registration (owner side).
    # ------------------------------------------------------------------

    def register(self, pid: int, key: Any, **kw) -> Window:
        """Register (or replace) window ``key`` on node ``pid``."""
        win = Window(key, **kw)
        self._windows.setdefault(pid, {})[key] = win
        return win

    def deregister(self, pid: int, key: Any) -> None:
        """Drop window ``key`` on ``pid``; missing keys are ignored
        (GC paths deregister defensively)."""
        self._windows.get(pid, {}).pop(key, None)

    def deregister_where(self, pid: int,
                         pred: Callable[[Any], bool]) -> int:
        """Drop every window on ``pid`` whose key satisfies ``pred``."""
        wins = self._windows.get(pid, {})
        doomed = [k for k in wins if pred(k)]
        for k in doomed:
            del wins[k]
        return len(doomed)

    def window(self, pid: int, key: Any) -> Optional[Window]:
        return self._windows.get(pid, {}).get(key)

    # ------------------------------------------------------------------
    # Initiator side.
    # ------------------------------------------------------------------

    def post(self, src: int, dst: int, ops: Sequence[tuple],
             sync: bool = True) -> Optional[List[tuple]]:
        """Post one batch of ops from ``src`` against ``dst``'s windows.

        ``sync=True`` blocks the initiating process until the
        completion frame lands and returns the per-op results, in op
        order:

        * ``("ok", value, nbytes)`` — read served / write deposited;
        * ``("miss",)`` — vetoed by the window's guard (fall back to
          the two-sided path);
        * ``("cas", ok, found)`` / ``("faa", old)`` — atomic results.

        A wild op (unregistered window, bad range, missing capability)
        raises :class:`~repro.errors.WindowError` here.  ``sync=False``
        posts fire-and-forget (write batches); a wild posted op raises
        at NIC service time instead.
        """
        if sync:
            ops = tuple(ops)
            if not ops:
                return []
            batch_id = self.post_begin(src, dst, ops)
            return self.post_wait(src, dst, batch_id)
        self._post(src, dst, tuple(ops), batch_id=None)
        return None

    def post_begin(self, src: int, dst: int,
                   ops: Sequence[tuple]) -> int:
        """Split-phase sync batch: ring the doorbell, return a batch id
        for a later :meth:`post_wait` (the overlap window of Figure 4's
        Fetch_diffs / Apply_diffs split)."""
        batch_id = self._next_batch
        self._next_batch += 1
        self._pending[batch_id] = _Pending()
        self._post(src, dst, tuple(ops), batch_id=batch_id)
        return batch_id

    def post_wait(self, src: int, dst: int,
                  batch_id: int) -> List[tuple]:
        """Block until batch ``batch_id``'s completion lands; reap it."""
        proc = self.net._endpoints[src].proc
        if self.engine.current is not proc:
            raise SimulationError(
                f"P{src}: one-sided completion reaped outside process "
                f"context")
        pend = self._pending[batch_id]
        while not pend.done:
            proc.waiting_on = f"rdma.batch->P{dst}"
            proc.wait()
        proc.waiting_on = None
        del self._pending[batch_id]
        proc.advance(self.net.config.rdma_poll_cost, "rdma.poll")
        if pend.error is not None:
            raise WindowError(pend.error)
        return pend.results

    def _post(self, src: int, dst: int, ops: tuple,
              batch_id: Optional[int]) -> None:
        if not ops:
            return
        net = self.net
        cfg = net.config
        proc = net._endpoints[src].proc
        in_process = self.engine.current is proc
        if batch_id is not None and not in_process:
            raise SimulationError(
                f"P{src}: synchronous one-sided batch posted outside "
                f"process context")
        # The doorbell: one cheap CPU charge per batch, however many ops.
        if in_process:
            proc.advance(cfg.rdma_post_cost, "rdma.post")
            depart = max(self.engine.now, proc.busy_until)
        else:
            proc.steal_cpu(cfg.rdma_post_cost, "rdma.post")
            depart = proc.busy_until
        wire = cfg.rdma_op_bytes * len(ops)
        wbytes = sum(op[3] for op in ops if op[0] == "write")
        wire += wbytes

        stats = net.stats
        stats.onesided_batches += 1
        stats.onesided_ops += len(ops)
        stats.onesided_bytes += wbytes
        tel = net.telemetry
        if tel is not None:
            tel.event(src, "net.rdma.batch", to=dst, ops=len(ops),
                      bytes=wire)
        for op in ops:
            stats.onesided_by_op[op[0]] += 1
            if tel is not None:
                tel.event(src, "net.rdma.op", to=dst, op=op[0],
                          win=op[1],
                          bytes=op[3] if op[0] == "write" else 0)
        msg = Message(kind=BATCH_KIND, src=src, dst=dst,
                      payload=(batch_id, src, ops), size=wire)
        net._transmit(msg, depart)

    # ------------------------------------------------------------------
    # NIC side (runs on the engine thread; never blocks).
    # ------------------------------------------------------------------

    def _receive(self, msg: Message) -> None:
        """Entry from :meth:`Network._deliver` for ``rdma.*`` frames."""
        if msg.kind == CMPL_KIND:
            self._complete(msg)
            return
        batch_id, initiator, ops = msg.payload
        host = msg.dst
        start = max(self.engine.now, self._nic_free.get(host, 0.0))
        done = start + self.net.config.rdma_op_service * len(ops)
        self._nic_free[host] = done
        self.engine.call_at(
            done, lambda: self._service(host, initiator, batch_id, ops))

    def _service(self, host: int, initiator: int,
                 batch_id: Optional[int], ops: tuple) -> None:
        wins = self._windows.get(host, {})
        stats = self.net.stats
        tel = self.net.telemetry
        results: List[tuple] = []
        resp_bytes = 0
        error: Optional[str] = None

        def wild(op: tuple, why: str) -> tuple:
            nonlocal error
            detail = (f"one-sided {op[0]} from P{initiator} on window "
                      f"{op[1]!r} at P{host}: {why}")
            if error is None:
                error = detail
            return ("err", detail)

        for op in ops:
            code = op[0]
            win = wins.get(op[1])
            if win is None:
                results.append(wild(op, "window not registered"))
                continue
            if win.guard is not None and not win.guard(op):
                results.append(("miss",))
                continue
            if code == "read":
                _, key, off, length = op
                if win.reader is not None:
                    if off is None:
                        off, length = 0, win.nbytes
                    if off < 0 or length < 0 \
                            or off + length > win.nbytes:
                        results.append(wild(
                            op, f"range [{off}, {off + length}) outside "
                                f"window bounds [0, {win.nbytes})"))
                        continue
                    results.append(("ok", win.reader(off, length),
                                    length))
                    resp_bytes += length
                else:
                    if off is not None:
                        results.append(wild(
                            op, "window is not byte-addressable"))
                        continue
                    results.append(("ok", win.value, win.nbytes))
                    resp_bytes += win.nbytes
            elif code == "write":
                _, key, value, nbytes = op
                if win.on_write is None:
                    results.append(wild(op, "window is not writable"))
                    continue
                win.on_write(value, nbytes)
                results.append(("ok", None, 0))
            elif code == "cas":
                _, key, fld, expect, new = op
                if win.words is None:
                    results.append(wild(op, "window has no atomic words"))
                    continue
                found = win.words.get(fld)
                ok = found == expect
                if ok:
                    win.words[fld] = new
                else:
                    stats.onesided_cas_failures += 1
                    if tel is not None:
                        tel.event(host, "net.rdma.cas_fail", win=key,
                                  field=fld, by=initiator)
                results.append(("cas", ok, found))
            elif code == "faa":
                _, key, fld, delta = op
                if win.words is None:
                    results.append(wild(op, "window has no atomic words"))
                    continue
                old = win.words.get(fld, 0)
                win.words[fld] = old + delta
                results.append(("faa", old))
            else:
                results.append(wild(op, f"unknown op code {code!r}"))

        if batch_id is None:
            # Posted batch: a deposit event lets the critical path tile
            # a receiver's wait on the NIC deposit that released it.
            if tel is not None:
                tel.event(host, "net.rdma.put", frm=initiator,
                          ops=len(ops))
            if error is not None:
                raise WindowError(error)
            return
        stats.onesided_bytes += resp_bytes
        if tel is not None:
            tel.event(host, "net.rdma.cmpl", to=initiator,
                      ops=len(ops), bytes=resp_bytes)
        resp = Message(kind=CMPL_KIND, src=host, dst=initiator,
                       payload=(batch_id, results, error),
                       size=resp_bytes)
        self.net._transmit(resp, self.engine.now)

    def _complete(self, msg: Message) -> None:
        batch_id, results, error = msg.payload
        pend = self._pending.get(batch_id)
        if pend is None:
            return
        pend.results = results
        pend.error = error
        pend.done = True
        self.net._endpoints[msg.dst].proc.wake()

    # ------------------------------------------------------------------

    def debug_lines(self) -> List[str]:
        """Outstanding sync batches, for the engine's deadlock dump."""
        out: List[str] = []
        for bid, pend in sorted(self._pending.items()):
            if not pend.done:
                out.append(f"onesided: batch {bid} awaiting completion")
        return out
