"""Reliable, exactly-once, in-order-per-channel transport.

The DSM protocol above (:mod:`repro.tm`) was written for the SP/2's
user-level MPL, which never loses a message.  When a
:class:`~repro.faults.FaultPlan` makes the fabric lossy, this layer is
interposed between :meth:`Endpoint.send` and :meth:`Network._deliver`
to restore that contract:

* every data message on a directed ``(src, dst)`` channel carries a
  per-channel **sequence number**;
* the receiver holds out-of-order frames in a reorder buffer and hands
  messages to the protocol layer **exactly once, in send order**;
  duplicate frames (fabric copies or spurious retransmissions) are
  discarded by sequence-number dedup;
* every data-frame arrival is answered with a **cumulative ack**; acks
  themselves are unreliable (they need no ack — a lost ack simply
  causes one more retransmission, which dedup absorbs);
* unacked frames are retransmitted after a timeout with **exponential
  backoff** and a bounded **retry budget**; exhausting the budget
  raises a typed :class:`~repro.errors.TransportError` naming the
  channel, frame and elapsed time.

Costs flow through the existing cost model: a retransmission steals
``send_overhead`` CPU from the sender (it is timer-driven, like an
interrupt), an ack steals ``ack_overhead_us`` from its sender, and
every frame pays the normal wire time — so degraded runs get slower in
simulated time, not just noisier.  Every retransmission and ack is
recorded in :class:`~repro.net.stats.NetStats` and mirrored to
telemetry (``net.retry`` / ``net.drop`` events, ``net.msg`` for the
extra traffic) exactly like a first-class send, keeping
``repro.inspect``'s message reconciliation exact.

With the transport disabled (the default), :class:`Network` schedules
deliveries directly and none of this code runs: fault-free baselines
are bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultPlanError, TransportError
from repro.net.message import Message

Channel = Tuple[int, int]   # (src pid, dst pid)

#: Wire kind of ack frames (shows up in NetStats.by_kind / telemetry).
ACK_KIND = "xp.ack"


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs of the reliable transport.

    The defaults assume the SP/2 cost model (~365 us minimum
    roundtrip): the first retransmission fires after ``rto_us``, each
    further one doubles the wait, and the budget caps total patience at
    ``rto_us * (backoff**max_retries - 1) / (backoff - 1)`` — about 5
    simulated seconds, far beyond any plausible outage in a run.
    """

    #: Initial retransmission timeout (microseconds after departure).
    rto_us: float = 1200.0
    #: Multiplier applied to the timeout on every retry.
    backoff: float = 2.0
    #: Retransmissions allowed per frame before TransportError.
    max_retries: int = 12
    #: CPU stolen from a processor to emit an ack frame.
    ack_overhead_us: float = 10.0
    #: Application payload bytes of an ack frame (header is added by
    #: the normal wire-time accounting).
    ack_bytes: int = 0

    def __post_init__(self) -> None:
        if self.rto_us <= 0:
            raise FaultPlanError(
                f"TransportConfig.rto_us must be > 0, got {self.rto_us!r}")
        if self.backoff < 1.0:
            raise FaultPlanError(
                f"TransportConfig.backoff must be >= 1, got "
                f"{self.backoff!r}")
        if self.max_retries < 0:
            raise FaultPlanError(
                f"TransportConfig.max_retries must be >= 0, got "
                f"{self.max_retries!r}")
        if self.ack_overhead_us < 0 or self.ack_bytes < 0:
            raise FaultPlanError(
                "TransportConfig ack cost/size must be >= 0")

    def timeout_for(self, retries: int) -> float:
        return self.rto_us * (self.backoff ** retries)


class _Inflight:
    """Sender-side state of one unacked data frame."""

    __slots__ = ("msg", "seq", "retries", "token", "first_depart")

    def __init__(self, msg: Message, seq: int, depart: float) -> None:
        self.msg = msg
        self.seq = seq
        self.retries = 0
        #: Bumped on every (re)arm so stale timers self-cancel.
        self.token = 0
        self.first_depart = depart


class ReliableTransport:
    """Sequence/ack/retry machinery for one :class:`Network`."""

    def __init__(self, net, config: TransportConfig,
                 injector=None) -> None:
        self.net = net
        self.cfg = config
        #: Optional :class:`repro.faults.FaultInjector` deciding what
        #: the fabric does to each frame; ``None`` = perfect fabric.
        self.injector = injector
        self._next_seq: Dict[Channel, int] = {}
        self._unacked: Dict[Channel, Dict[int, _Inflight]] = {}
        self._expected: Dict[Channel, int] = {}
        self._reorder: Dict[Channel, Dict[int, Message]] = {}

    # ------------------------------------------------------------------
    # Sender side.
    # ------------------------------------------------------------------

    def send(self, msg: Message, depart: float) -> None:
        """Entry point from :meth:`Network._transmit` (send side)."""
        ch = (msg.src, msg.dst)
        seq = self._next_seq.get(ch, 0)
        self._next_seq[ch] = seq + 1
        entry = _Inflight(msg, seq, depart)
        self._unacked.setdefault(ch, {})[seq] = entry
        self._wire_data(entry, depart)
        self._arm(ch, entry, depart)

    def _wire_data(self, entry: _Inflight, depart: float) -> None:
        msg = entry.msg
        copies = [0.0] if self.injector is None else \
            self.injector.plan_copies(msg.src, msg.dst, msg.kind, depart)
        arrive_base = depart + self.net.config.wire_time(msg.size)
        seq = entry.seq
        for extra in copies:
            self.net.engine.call_at(
                arrive_base + extra,
                lambda m=msg, s=seq: self._rx_data(m, s))

    def _arm(self, ch: Channel, entry: _Inflight, basis: float) -> None:
        entry.token += 1
        token = entry.token
        seq = entry.seq
        fire_at = basis + self.cfg.timeout_for(entry.retries)
        self.net.engine.call_at(
            fire_at, lambda: self._expire(ch, seq, token))

    def _expire(self, ch: Channel, seq: int, token: int) -> None:
        entry = self._unacked.get(ch, {}).get(seq)
        if entry is None or entry.token != token:
            return      # acked meanwhile, or superseded by a re-arm
        msg = entry.msg
        engine = self.net.engine
        if entry.retries >= self.cfg.max_retries:
            pending = sorted(self._unacked.get(ch, {}))
            raise TransportError(
                f"channel P{msg.src}->P{msg.dst}: {msg.kind!r} frame "
                f"seq={seq} unacked after {entry.retries} retries "
                f"({engine.now - entry.first_depart:.0f}us since first "
                f"transmission at t={entry.first_depart:.0f}); "
                f"{len(pending)} frame(s) unacked on this channel "
                f"(seq {pending[0]}..{pending[-1]})")
        entry.retries += 1
        stats = self.net.stats
        tel = self.net.telemetry
        if msg.kind.startswith("rdma."):
            # One-sided frames are retransmitted by the NIC itself: no
            # sender CPU is stolen and the frame stays out of the
            # two-sided message books (its ops were already counted at
            # post time; retransmission moves the same ops again).
            depart = engine.now
        else:
            proc = self.net._endpoints[msg.src].proc
            proc.steal_cpu(self.net.config.send_overhead, "net.send")
            depart = proc.busy_until
            stats.record(msg.kind, msg.src, msg.size)
            if tel is not None:
                tel.message(msg.src, msg.dst, msg.kind,
                            msg.size + self.net.config.header_bytes)
        stats.retransmits += 1
        if tel is not None:
            tel.event(msg.src, "net.retry", to=msg.dst, msg=msg.kind,
                      seq=seq, attempt=entry.retries)
        self._wire_data(entry, depart)
        self._arm(ch, entry, depart)

    def _rx_ack(self, ch: Channel, cum: int) -> None:
        if self.injector is not None and \
                self.injector.outage_at(ch[0], self.net.engine.now):
            return      # ack arrived at a dead NIC; retries will cover
        entries = self._unacked.get(ch)
        if not entries:
            return
        for seq in [s for s in entries if s <= cum]:
            del entries[seq]

    # ------------------------------------------------------------------
    # Receiver side.
    # ------------------------------------------------------------------

    def _rx_data(self, msg: Message, seq: int) -> None:
        now = self.net.engine.now
        if self.injector is not None and \
                self.injector.outage_at(msg.dst, now):
            # Frame reached a dead NIC: lost, sender will retry.
            if self.injector.stats is not None:
                self.injector.stats.faults_outage += 1
            if self.injector.tel is not None:
                self.injector.tel.event(msg.src, "fault.outage",
                                        to=msg.dst, msg=msg.kind,
                                        at_receiver=True)
            return
        ch = (msg.src, msg.dst)
        expected = self._expected.get(ch, 0)
        buf = self._reorder.setdefault(ch, {})
        if seq < expected or seq in buf:
            self.net.stats.dup_frames_discarded += 1
            tel = self.net.telemetry
            if tel is not None:
                tel.event(msg.dst, "net.drop", src=msg.src,
                          msg=msg.kind, seq=seq, reason="duplicate")
        else:
            buf[seq] = msg
            while expected in buf:
                self.net._deliver(buf.pop(expected))
                expected += 1
            self._expected[ch] = expected
        # Always (re-)ack: a duplicate usually means the sender missed
        # an earlier ack, so the cumulative ack is repeated.
        self._send_ack(ch, self._expected.get(ch, 0) - 1)

    def _send_ack(self, ch: Channel, cum: int) -> None:
        src, dst = ch               # data direction; ack flows dst->src
        net = self.net
        proc = net._endpoints[dst].proc
        proc.steal_cpu(self.cfg.ack_overhead_us, "net.ack")
        depart = proc.busy_until
        net.stats.record(ACK_KIND, dst, self.cfg.ack_bytes)
        net.stats.acks += 1
        tel = net.telemetry
        if tel is not None:
            tel.message(dst, src, ACK_KIND,
                        self.cfg.ack_bytes + net.config.header_bytes)
        copies = [0.0] if self.injector is None else \
            self.injector.plan_copies(dst, src, ACK_KIND, depart)
        arrive_base = depart + net.config.wire_time(self.cfg.ack_bytes)
        for extra in copies:
            net.engine.call_at(arrive_base + extra,
                               lambda c=cum: self._rx_ack(ch, c))

    # ------------------------------------------------------------------
    # Introspection (deadlock diagnostics, chaos report).
    # ------------------------------------------------------------------

    def unacked_frames(self) -> int:
        return sum(len(v) for v in self._unacked.values())

    def debug_lines(self) -> List[str]:
        out: List[str] = []
        for ch in sorted(self._unacked):
            entries = self._unacked[ch]
            if not entries:
                continue
            parts = ", ".join(
                f"seq={s} {e.msg.kind} retries={e.retries}"
                for s, e in sorted(entries.items())[:6])
            out.append(f"transport P{ch[0]}->P{ch[1]}: "
                       f"{len(entries)} unacked ({parts})")
        for ch in sorted(self._reorder):
            buf = self._reorder[ch]
            if buf:
                out.append(
                    f"transport P{ch[0]}->P{ch[1]}: {len(buf)} frames "
                    f"held for reordering (expecting seq="
                    f"{self._expected.get(ch, 0)})")
        return out
