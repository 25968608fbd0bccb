"""Point-to-point message passing primitives for hand-coded baselines."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


def _payload_bytes(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (tuple, list)):
        return sum(_payload_bytes(x) for x in data)
    if isinstance(data, (int, float, np.integer, np.floating)):
        return 8
    if data is None:
        return 0
    return 16


class MpComm:
    """One processor's handle to the message-passing world."""

    def __init__(self, proc, endpoint) -> None:
        self.proc = proc
        self.ep = endpoint
        self.pid = proc.pid
        self.nprocs = endpoint.net.nprocs
        self.cfg = endpoint.net.config
        self.tel = endpoint.net.telemetry

    # ------------------------------------------------------------------

    def send(self, dst: int, data: Any, tag: Any = 0) -> None:
        """Send ``data`` to ``dst``; arrays are copied at send time."""
        if isinstance(data, np.ndarray):
            data = data.copy()
        self.ep.send(dst, "mp", payload=data, size=_payload_bytes(data),
                     tag=tag)

    def recv(self, src: Optional[int] = None, tag: Any = 0) -> Any:
        """Blocking posted receive (no interrupt cost)."""
        msg = self.ep.recv(kind="mp", src=src, tag=tag)
        return msg.payload

    def bcast(self, root: int, data: Any = None, tag: Any = 0) -> Any:
        """Broadcast from ``root``; pipelined sends at the root."""
        if self.pid == root:
            if isinstance(data, np.ndarray):
                data = data.copy()
            size = _payload_bytes(data)
            first = True
            for dst in range(self.nprocs):
                if dst == root:
                    continue
                cost = None if first else self.cfg.bcast_extra_per_dest
                self.ep.send(dst, "mp", payload=data, size=size, tag=tag,
                             send_cost=cost)
                first = False
            return data
        return self.recv(src=root, tag=tag)

    def barrier(self, tag: Any = "mpbar") -> None:
        """Flat barrier: gather at 0, release from 0."""
        t0 = self.proc.engine.now
        if self.pid == 0:
            for src in range(1, self.nprocs):
                self.recv(src=src, tag=(tag, "in"))
            for dst in range(1, self.nprocs):
                self.send(dst, None, tag=(tag, "out"))
        else:
            self.send(0, None, tag=(tag, "in"))
            self.recv(src=0, tag=(tag, "out"))
        if self.tel is not None:
            self.tel.barrier(self.pid)
            self.tel.span(self.pid, "wait.barrier", t0,
                          self.proc.engine.now)

    def allreduce_sum(self, value: float, tag: Any = "ar") -> float:
        """Sum-reduce a scalar across all processors (via rank 0)."""
        if self.pid == 0:
            total = value
            for src in range(1, self.nprocs):
                total += self.recv(src=src, tag=(tag, "in"))
            self.bcast(0, total, tag=(tag, "out"))
            return total
        self.send(0, value, tag=(tag, "in"))
        return self.recv(src=0, tag=(tag, "out"))

    def compute(self, us: float) -> None:
        """Charge local computation time: banked until the next send,
        receive or the end of ``main`` when untraced (see
        :meth:`repro.sim.engine.Process.flush`)."""
        if us > 0:
            if self.tel is None:
                self.proc.bank_charge(us)
            else:
                self.proc.advance(us)
