"""Point-to-point network with interrupt-driven request dispatch.

Two delivery paths exist, mirroring the SP/2 MPL usage in the paper:

* **Handler path** (unsolicited requests).  If the destination endpoint has
  a handler registered for the message kind, the handler runs on the engine
  thread at delivery time.  The destination CPU is charged the interrupt
  cost plus whatever the handler charges via ``Endpoint.charge`` — stealing
  time from the destination's computation, exactly like TreadMarks'
  SIGIO-driven request servicing.  Handlers must not block.

* **Mailbox path** (expected responses / explicit receives).  The message
  is appended to the destination mailbox and the destination process is
  woken if it is blocked in ``recv``.

Message-passing systems in the paper (PVMe, XHPF) ran with interrupts
disabled; they simply never register handlers, so all their traffic takes
the mailbox path and never pays the interrupt cost.

A third, optional stage sits between the two: when the network is built
with a :class:`~repro.faults.FaultPlan` (and/or a
:class:`~repro.net.transport.TransportConfig`), every frame passes
through the reliable transport (:mod:`repro.net.transport`), which
survives the injected loss/duplication/reordering and still hands the
upper layers exactly-once, in-order-per-channel delivery.  Without it
(the default), sends schedule ``_deliver`` directly and nothing changes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import ReceiveTimeout, SimulationError
from repro.machine.config import MachineConfig
from repro.net.message import Message
from repro.net.stats import NetStats
from repro.sim.engine import Engine, Process

Handler = Callable[[Message], None]
Match = Callable[[Message], bool]


class Endpoint:
    """Per-processor attachment point to the network."""

    def __init__(self, net: "Network", proc: Process) -> None:
        self.net = net
        self.proc = proc
        self.pid = proc.pid
        self.mailbox: List[Message] = []
        self.handlers: Dict[str, tuple] = {}

    # ------------------------------------------------------------------

    def on(self, kind: str, handler: Handler, interrupt: bool = True) -> None:
        """Register a handler for unsolicited ``kind`` messages.

        ``interrupt=False`` suppresses the automatic interrupt-cost charge;
        the handler then accounts for all CPU itself (used for batched
        servicing such as barrier arrivals).
        """
        self.handlers[kind] = (handler, interrupt)

    def charge(self, cost: float) -> None:
        """Charge handler CPU time to this endpoint's processor.

        Valid both from handler context (steals CPU) and from process
        context (advances the clock).
        """
        if self.net.engine.current is self.proc:
            self.proc.advance(cost)
        else:
            self.proc.steal_cpu(cost)

    # ------------------------------------------------------------------

    def send(self, dst: int, kind: str, payload: Any = None,
             size: int = 0, tag: Any = None,
             send_cost: Optional[float] = None,
             unreliable: bool = False,
             offload: bool = False) -> Message:
        """Send one message; returns the in-flight :class:`Message`.

        Charges the sender's CPU with the send overhead (or ``send_cost``
        when given, e.g. the cheaper marginal cost of a pipelined
        broadcast).  Works both from process context and from handler
        context (responses sent while servicing an interrupt).

        ``unreliable=True`` sends a fire-and-forget datagram: the frame
        bypasses the reliable transport (no sequence number, ack, or
        retransmission) and is silently dropped if the fabric loses it
        or the receiver's NIC is dark.  Heartbeats use this — a lost
        beat must look exactly like a silent sender.

        ``offload=True`` models a NIC-offloaded frame: it departs at the
        current simulated time instead of queueing behind the sender
        CPU's busy window.  The CPU is still charged ``send_cost`` (the
        doorbell write), but a node deep in a compute phase keeps
        beating on schedule — without this, heartbeats emitted from
        timer context stack up behind multi-millisecond compute
        stretches and a live node looks dead to its monitor.
        """
        cfg = self.net.config
        engine = self.net.engine
        cost = cfg.send_overhead if send_cost is None else send_cost
        if self.net.engine.current is self.proc:
            self.proc.advance(cost)
            depart = max(engine.now, self.proc.busy_until)
        else:
            self.proc.steal_cpu(cost)
            depart = self.proc.busy_until
        if offload:
            depart = engine.now
        msg = Message(kind=kind, src=self.pid, dst=dst,
                      payload=payload, size=size, tag=tag)
        self.net.stats.record(kind, self.pid, size)
        tel = self.net.telemetry
        if tel is not None:
            tel.message(self.pid, dst, kind, size + cfg.header_bytes)
        self.net._transmit(msg, depart, unreliable=unreliable)
        return msg

    def broadcast(self, kind: str, payload: Any = None, size: int = 0,
                  tag: Any = None) -> None:
        """Send to every other endpoint (n-1 point-to-point messages)."""
        for dst in range(self.net.nprocs):
            if dst != self.pid:
                self.send(dst, kind, payload=payload, size=size, tag=tag)

    # ------------------------------------------------------------------

    def recv(self, kind: Optional[str] = None, src: Optional[int] = None,
             tag: Any = None, match: Optional[Match] = None,
             timeout: Optional[float] = None) -> Message:
        """Blocking receive of the first matching mailbox message.

        Charges the receive overhead once the message is taken.  Matching
        is by ``kind``/``src``/``tag`` (each optional) or a custom
        predicate.  With ``timeout`` (simulated microseconds) the wait is
        bounded: if no matching message has arrived by ``now + timeout``
        a :class:`~repro.errors.ReceiveTimeout` is raised, letting the
        caller degrade gracefully instead of deadlocking the simulation.
        A message arriving exactly at the deadline wins over the timeout.
        """

        engine = self.net.engine
        deadline = None
        if timeout is not None:
            if timeout < 0:
                raise SimulationError(f"negative recv timeout: {timeout}")
            deadline = engine.now + timeout
            engine.call_at(deadline, self.proc.wake)
        what = None     # built only when about to wait or time out
        while True:
            for i, msg in enumerate(self.mailbox):
                if (match(msg) if match is not None else
                        (kind is None or msg.kind == kind)
                        and (src is None or msg.src == src)
                        and (tag is None or msg.tag == tag)):
                    del self.mailbox[i]
                    self.proc.waiting_on = None
                    self.proc.advance(self.net.config.recv_overhead)
                    return msg
            if what is None:
                what = (f"recv(kind={kind!r}, src={src}, tag={tag!r})"
                        if match is None else "recv(<custom match>)")
            if deadline is not None and engine.now >= deadline:
                self.proc.waiting_on = None
                raise ReceiveTimeout(
                    f"P{self.pid} {what} timed out after {timeout:g}us "
                    f"at t={engine.now:.1f}")
            self.proc.waiting_on = what
            self.proc.wait()
            self.proc.waiting_on = None

    def try_recv(self, kind: Optional[str] = None,
                 src: Optional[int] = None) -> Optional[Message]:
        """Non-blocking variant of :meth:`recv`; returns ``None`` if empty."""
        for i, msg in enumerate(self.mailbox):
            if (kind is None or msg.kind == kind) and \
               (src is None or msg.src == src):
                del self.mailbox[i]
                self.proc.advance(self.net.config.recv_overhead)
                return msg
        return None


class Network:
    """The interconnect tying all endpoints together."""

    def __init__(self, engine: Engine, config: MachineConfig,
                 nprocs: int, telemetry=None, faults=None,
                 transport: Union[None, bool, "TransportConfig"] = None) \
            -> None:
        self.engine = engine
        self.config = config
        self.nprocs = nprocs
        self.stats = NetStats(header_bytes=config.header_bytes)
        #: Optional :class:`repro.telemetry.Telemetry`: every message
        #: ``NetStats`` counts also becomes a ``net.msg`` timeline event.
        self.telemetry = telemetry
        #: Optional :class:`repro.observe.WallProfiler`, captured from
        #: the engine (systems bind it before building the network).
        #: Used to leaf-time interrupt-handler servicing.
        self.profiler = engine.profiler
        self._endpoints: Dict[int, Endpoint] = {}
        #: Optional :class:`repro.faults.FaultInjector` realizing a
        #: :class:`~repro.faults.FaultPlan` on this fabric.
        self.injector = None
        #: Optional :class:`~repro.net.transport.ReliableTransport`.
        #: ``None`` (the default) keeps the legacy direct-delivery path
        #: with zero overhead; a fault plan auto-enables it, since the
        #: DSM protocol cannot survive loss without it.
        self.transport = None
        #: Optional :class:`~repro.net.onesided.OneSidedPlane`.  Built
        #: by the system layer when the run asks for
        #: ``data_plane="onesided"``; ``None`` (the default) means no
        #: ``rdma.*`` frames ever exist and delivery is byte-identical
        #: to the two-sided-only build.
        self.onesided = None
        if faults is not None:
            from repro.faults import FaultInjector
            self.injector = FaultInjector(faults, nprocs,
                                          stats=self.stats,
                                          telemetry=telemetry)
        if transport is True or (transport is None
                                 and faults is not None):
            from repro.net.transport import TransportConfig
            transport = TransportConfig()
        if transport:
            from repro.net.transport import ReliableTransport
            self.transport = ReliableTransport(self, transport,
                                               injector=self.injector)
        engine.add_debug_source(self._debug_lines)

    def attach(self, proc: Process) -> Endpoint:
        if proc.pid in self._endpoints:
            raise SimulationError(f"pid {proc.pid} already attached")
        ep = Endpoint(self, proc)
        self._endpoints[proc.pid] = ep
        return ep

    def endpoint(self, pid: int) -> Endpoint:
        return self._endpoints[pid]

    # ------------------------------------------------------------------

    def _transmit(self, msg: Message, depart: float,
                  unreliable: bool = False) -> None:
        """Put one message on the wire at time ``depart``.

        With the reliable transport enabled the frame gets a sequence
        number, fault treatment, and retransmission cover; otherwise it
        is delivered directly after the nominal wire time (the legacy
        perfect-fabric path, byte-identical to the pre-transport code).
        ``unreliable`` frames (heartbeats) always take the datagram
        path: one fault-treated copy, no retransmission, dropped at a
        dark receiver NIC.
        """
        if unreliable:
            inj = self.injector
            copies = ([0.0] if inj is None
                      else inj.plan_copies(msg.src, msg.dst, msg.kind,
                                           depart))
            arrive = depart + self.config.wire_time(msg.size)
            for extra in copies[:1]:
                self.engine.call_at(
                    arrive + extra,
                    lambda m=msg: self._deliver_unreliable(m))
            return
        tp = self.transport
        if tp is not None:
            tp.send(msg, depart)
            return
        deliver_at = depart + self.config.wire_time(msg.size)
        self.engine.call_at(deliver_at, lambda: self._deliver(msg))

    def _deliver_unreliable(self, msg: Message) -> None:
        """Datagram arrival: drop silently if the receiver is dark."""
        inj = self.injector
        if inj is not None \
                and inj.outage_at(msg.dst, self.engine.now) is not None:
            inj._note("outage", msg.src, msg.dst, msg.kind,
                      "faults_outage", at_receiver=True)
            return
        self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        ep = self._endpoints.get(msg.dst)
        if ep is None:
            raise SimulationError(f"message to unattached pid {msg.dst}")
        prof = self.profiler
        if prof is not None:
            prof.n_messages += 1
        if self.onesided is not None and msg.kind.startswith("rdma."):
            # Third delivery path: the destination NIC services the
            # frame.  No interrupt, no handler, no mailbox — the
            # destination process is never scheduled.
            if prof is None:
                self.onesided._receive(msg)
            else:
                t0 = perf_counter()
                leaf0 = prof.leaf_s
                self.onesided._receive(msg)
                dt = perf_counter() - t0
                prof.leaf("net.rdma", dt - (prof.leaf_s - leaf0))
            return
        entry = ep.handlers.get(msg.kind)
        if entry is not None:
            handler, interrupt = entry
            if interrupt:
                ep.proc.steal_cpu(self.config.interrupt_cost)
            if prof is None:
                handler(msg)
            else:
                # Handlers never block (engine contract), so a leaf
                # scope is safe; subtract nested leaves (diff work
                # inside the handler) to keep attribution exclusive.
                t0 = perf_counter()
                leaf0 = prof.leaf_s
                handler(msg)
                dt = perf_counter() - t0
                prof.leaf("tm.serve", dt - (prof.leaf_s - leaf0))
        else:
            ep.mailbox.append(msg)
            ep.proc.wake()

    # ------------------------------------------------------------------
    # Deadlock diagnostics (engine debug source).
    # ------------------------------------------------------------------

    def _debug_lines(self) -> List[str]:
        """Undelivered traffic, for the engine's deadlock dump."""
        out: List[str] = []
        for pid in sorted(self._endpoints):
            box = self._endpoints[pid].mailbox
            if not box:
                continue
            shown = ", ".join(
                f"{m.kind}<-P{m.src} tag={m.tag!r}" for m in box[:8])
            more = f", +{len(box) - 8} more" if len(box) > 8 else ""
            out.append(f"P{pid} mailbox ({len(box)} undelivered): "
                       f"{shown}{more}")
        if self.transport is not None:
            out.extend(self.transport.debug_lines())
        if self.onesided is not None:
            out.extend(self.onesided.debug_lines())
        return out
