"""Harness for message-passing runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.machine.config import MachineConfig
from repro.mp.api import MpComm
from repro.net.network import Network
from repro.net.stats import NetStats
from repro.sim.engine import Engine


@dataclass
class MpRunResult:
    time: float
    net: NetStats
    returns: list

    @property
    def messages(self) -> int:
        return self.net.messages

    @property
    def data_bytes(self) -> int:
        return self.net.bytes


class MpSystem:
    """A simulated cluster running hand-coded message passing."""

    def __init__(self, nprocs: int,
                 config: Optional[MachineConfig] = None,
                 telemetry=None, faults=None, transport=None,
                 profile=None, monitor=None) -> None:
        self.nprocs = nprocs
        base = config or MachineConfig()
        self.config = base.with_nprocs(nprocs)
        self.engine = Engine()
        #: Optional :class:`repro.telemetry.Telemetry` shared with the
        #: engine and network.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_engine(self.engine, nprocs)
        #: Optional wall-clock observatory (profiler + heartbeat); must
        #: bind before the network, which captures ``engine.profiler``.
        self.profile = profile
        if profile is not None:
            profile.bind_engine(self.engine)
        if monitor is not None:
            monitor.bind_engine(self.engine)
        self.net = Network(self.engine, self.config, nprocs,
                           telemetry=telemetry, faults=faults,
                           transport=transport)

    def run(self, main: Callable[[MpComm], object]) -> MpRunResult:
        comms: List[MpComm] = []
        procs = []
        for pid in range(self.nprocs):
            proc = self.engine.add_process(
                f"P{pid}", lambda p: main(comms[p.pid]))
            ep = self.net.attach(proc)
            procs.append(proc)
        for proc in procs:
            comms.append(MpComm(proc, self.net.endpoint(proc.pid)))
        self.engine.run()
        return MpRunResult(
            time=self.engine.now,
            net=self.net.stats,
            returns=[p.result for p in procs],
        )
