"""Wiring: engine + network + one TmNode per simulated processor.

Typical use::

    layout = SharedLayout()
    layout.add_array("b", (1024, 1024))

    def main(node):
        b = node.array("b")
        ...compute, node.barrier(), node.lock_acquire(0)...

    system = TmSystem(nprocs=8, layout=layout)
    result = system.run(main)
    print(result.time, result.stats.segv, result.messages)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.capability import cell_of, perturbations_of, require
from repro.machine.config import MachineConfig
from repro.memory.layout import SharedLayout
from repro.net.network import Network
from repro.net.stats import NetStats
from repro.sim.engine import Engine
from repro.tm.coherence import get_backend
from repro.tm.node import TmNode
from repro.tm.sharedarray import SharedArray
from repro.tm.stats import TmStats


@dataclass
class RunResult:
    """Outcome of one DSM run: simulated time plus counters."""

    time: float                 # microseconds of simulated execution
    stats: TmStats              # aggregated over all processors
    per_proc: List[TmStats]
    net: NetStats
    returns: list               # per-processor return values
    #: Each processor's CPU tally (``Process.tally``).
    tally: List[Dict[str, float]]

    @property
    def messages(self) -> int:
        return self.net.messages

    @property
    def data_bytes(self) -> int:
        return self.net.bytes


class TmSystem:
    """A simulated cluster running the TreadMarks DSM."""

    def __init__(self, nprocs: int, layout: SharedLayout,
                 config: Optional[MachineConfig] = None,
                 gc_threshold: Optional[int] = None,
                 eager_diffing: bool = False,
                 telemetry=None, faults=None, transport=None,
                 protocol: Optional[str] = None,
                 data_plane: Optional[str] = None,
                 profile=None) -> None:
        self.nprocs = nprocs
        self.layout = layout
        cell = require(cell_of("dsm", protocol, data_plane,
                               perturbations_of(faults, transport)))
        #: Coherence backend class (``protocol=`` selects it by name;
        #: None means the default, the paper's mw-lrc).
        self.backend_cls = get_backend(protocol)
        self.protocol = self.backend_cls.name
        #: Interval-record count at which the barrier master triggers a
        #: garbage-collection round (None: never — fine for short runs).
        self.gc_threshold = gc_threshold
        #: Ablation: encode diffs at interval end rather than lazily.
        self.eager_diffing = eager_diffing
        base = config or MachineConfig()
        self.config = base.with_nprocs(nprocs)
        self.engine = Engine()
        #: Optional :class:`repro.telemetry.Telemetry`; when set, every
        #: layer (engine, network, nodes) reports into it.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_engine(self.engine, nprocs)
        #: Optional :class:`repro.observe.WallProfiler` — the wall-clock
        #: observatory.  Bound to the engine *before* the network is
        #: built (the network captures ``engine.profiler``).
        self.profile = profile
        if profile is not None:
            profile.bind_engine(self.engine)
        #: Optional :class:`repro.faults.FaultPlan` /
        #: :class:`repro.net.TransportConfig`; a fault plan auto-enables
        #: the reliable transport underneath the DSM protocol.
        self.net = Network(self.engine, self.config, nprocs,
                           telemetry=telemetry, faults=faults,
                           transport=transport)
        #: Data plane: ``None``/"twosided" keeps every protocol message
        #: on the classic handler/mailbox paths (byte-identical to the
        #: pre-one-sided build); "onesided" builds the RDMA-style plane
        #: and the hot paths (diff fetch, Push, lock grant) lower onto
        #: it with a two-sided handler fallback.
        self.data_plane = None
        if cell.data_plane == "onesided":
            from repro.net.onesided import OneSidedPlane
            self.net.onesided = OneSidedPlane(self.net)
            self.data_plane = "onesided"
        #: Optional :class:`repro.absence.AbsenceManager`; built when
        #: the fault plan schedules node crashes or membership events.
        #: Must exist before the nodes: each :class:`TmNode` captures
        #: it at construction.
        self.absence = None
        if cell.perturbations & {"crashes", "membership"}:
            from repro.absence import AbsenceManager
            self.absence = AbsenceManager(self, faults)
        self.nodes: List[TmNode] = []

    def run(self, main: Callable[[TmNode], object]) -> RunResult:
        """Run ``main(node)`` on every processor to completion.

        An implicit *exit barrier* (TreadMarks' ``Tmk_exit``) runs after
        ``main`` returns: it restores full consistency at termination, so
        the compiler may replace even the last barrier of a program's
        steady state with a Push.
        """

        def wrapped(node):
            if self.absence is not None:
                self.absence.startup(node)
            result = main(node)
            node.barrier()
            return result

        procs = []
        for pid in range(self.nprocs):
            proc = self.engine.add_process(
                f"P{pid}", lambda p: wrapped(self.nodes[p.pid]))
            self.net.attach(proc)
            procs.append(proc)
        for proc in procs:
            node = TmNode(self, proc, self.net.endpoint(proc.pid))
            self.nodes.append(node)
            if self.absence is not None:
                self.absence.attach(node)
        if self.absence is not None:
            self.absence.start()
        self.engine.run()
        for n in self.nodes:
            n.stats.fill_cpu(n.proc.tally)
        per_proc = [replace(n.stats) for n in self.nodes]
        return RunResult(
            time=self.engine.now,
            stats=TmStats.total(per_proc),
            per_proc=per_proc,
            net=self.net.stats,
            returns=[p.result for p in procs],
            tally=[p.tally for p in procs],
        )

    def snapshot(self) -> dict:
        """Reconcile the final global state of every shared array.

        Runs *offline* (no simulated time or statistics); the coherence
        backend defines how the authoritative bytes are assembled
        (mw-lrc replays processor 0's notices; hlrc reads the homes).
        Programs should end with a barrier so the state is settled.
        """
        for node in self.nodes:
            node.offline = True
            node.tel = None     # offline work must not count or trace
            node.prof = None
        try:
            return self.nodes[0].coherence.snapshot_arrays()
        finally:
            for node in self.nodes:
                node.offline = False
                node.tel = self.telemetry
                node.prof = self.profile

    def release(self) -> None:
        """Give back every node's page image, twins and diffs, and the
        layout's access plan, and let go of the telemetry; the system
        is unusable afterwards.

        A finished system is cyclic garbage (system <-> nodes <->
        backends <-> network handlers), so its megabytes would wait for
        the cycle collector and pile up under a caller that runs one
        system after another.  So would a traced run's events and spans:
        let go of, they go with the run's outcome."""
        for node in self.nodes:
            node.image = node.pages = node.diff_store = node.tel = None
        self.layout.forget_plan()
        self.telemetry = self.engine.telemetry = self.net.telemetry = None
        if self.net.injector is not None:
            self.net.injector.tel = None
