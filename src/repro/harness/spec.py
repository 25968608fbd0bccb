"""The redesigned run facade: one spec, one entry point, four modes.

::

    from repro.harness import RunSpec, run

    out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                      nprocs=4, opt="aggr", telemetry=True))
    print(out.time, out.stats.segv, out.messages)
    out.telemetry.write_chrome_trace("trace.json")

``run`` also accepts keyword shorthand — ``run("jacobi", mode="mp",
nprocs=4)`` — and every outcome obeys the uniform
:class:`~repro.harness.outcome.RunOutcome` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

from repro.apps import get_app
from repro.apps.base import AppSpec
from repro.capability import (MODES, PLANES, Cell, cell_of,
                              perturbations_of, require)
from repro.compiler.transform import OptConfig
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.harness.outcome import RunOutcome
from repro.harness.runner import run_dsm, run_mp, run_seq, run_xhpf
from repro.lang.nodes import Program
from repro.machine.config import MachineConfig
from repro.net import TransportConfig
from repro.telemetry import Telemetry


@dataclass
class RunSpec:
    """Everything needed to run one application in one mode."""

    #: Application name (registry lookup), an :class:`AppSpec`, or a
    #: pre-built IR :class:`Program` (the latter not valid for ``mp``,
    #: which needs the app's hand-coded main).
    app: Union[str, AppSpec, Program]
    mode: str = "dsm"
    dataset: str = "tiny"
    #: Explicit parameter values; overrides ``dataset`` when given.
    params: Optional[Dict[str, int]] = None
    nprocs: int = 1
    #: Compiler optimization level for DSM runs: an ``OPT_LEVELS`` name
    #: ("base", "aggr", ...), an explicit :class:`OptConfig`, or None.
    opt: Union[None, str, OptConfig] = None
    config: Optional[MachineConfig] = None
    page_size: int = 4096
    snapshot: bool = True
    gc_threshold: Optional[int] = None
    eager_diffing: bool = False
    #: Coherence backend for DSM runs: a registered protocol name
    #: ("mw-lrc", "hlrc", "adaptive") or None for the default (the
    #: paper's mw-lrc).  See :mod:`repro.tm.coherence`.
    protocol: Optional[str] = None
    #: Data plane for DSM runs: None/"twosided" (default; every message
    #: takes the classic handler/mailbox paths) or "onesided" (the
    #: RDMA-style plane of :mod:`repro.net.onesided`; diff fetches,
    #: Push rounds and lock grants lower onto one-sided ops).
    data_plane: Optional[str] = None
    #: ``True`` to trace with a fresh :class:`Telemetry`, or pass an
    #: existing instance; ``False`` runs without any telemetry overhead.
    telemetry: Union[bool, Telemetry] = False
    #: Optional :class:`repro.faults.FaultPlan` injecting deterministic
    #: message faults (drops, duplicates, reordering, partitions,
    #: outages).  Setting a plan auto-enables the reliable transport.
    #: Not valid for ``seq`` runs (there is no network to break).
    faults: Optional["FaultPlan"] = None
    #: Reliable-transport control: ``None`` follows ``faults`` (on iff a
    #: plan is set), ``True`` forces the default
    #: :class:`repro.net.TransportConfig`, or pass an explicit config.
    transport: Union[None, bool, "TransportConfig"] = None
    #: Wall-clock observatory: ``True`` profiles with a fresh
    #: :class:`repro.observe.WallProfiler` (find it on
    #: ``outcome.profile``), or pass an existing instance; ``False``
    #: keeps every scope down to one attribute test.  Not valid for
    #: ``seq`` runs (no engine to instrument).
    profile: Union[bool, object] = False
    #: Optional :class:`repro.observe.RunMonitor` heartbeat (progress /
    #: ETA).  Like ``profile``, needs an engine — not valid for ``seq``.
    monitor: Optional[object] = None

    # ------------------------------------------------------------------

    @property
    def key(self) -> str:
        """``app/mode[/opt][+plane][@protocol]``: the name of this
        run's cell in ``benchmarks/baselines/protocol.json`` and in
        every ``{key: record}`` payload (default plane and backend
        unnamed; sizing, observation and perturbation not part of it)."""
        cell = cell_of(self.mode, self.protocol, self.data_plane)
        key = f"{getattr(self.app, 'name', self.app)}/{self.mode}"
        if self.opt:
            key += f"/{getattr(self.opt, 'name', self.opt)}"
        if cell.data_plane != Cell.data_plane:
            key += f"+{cell.data_plane}"
        if cell.protocol != Cell.protocol:
            key += f"@{cell.protocol}"
        return key

    @classmethod
    def from_key(cls, key: str, **fields) -> "RunSpec":
        """The spec a :attr:`key` names (``fields`` supply the rest)."""
        head, _, protocol = key.partition("@")
        plane = next((p for p in PLANES if head.endswith("+" + p)), None)
        if plane is not None:
            head = head[:-len(plane) - 1]
        app, mode, *opt = head.split("/")
        return cls(app=app, mode=mode, opt=opt[0] if opt else None,
                   data_plane=plane, protocol=protocol or None, **fields)

    def resolve_app(self) -> Optional[AppSpec]:
        if isinstance(self.app, str):
            return get_app(self.app)
        if isinstance(self.app, AppSpec):
            return self.app
        return None

    def resolve_params(self) -> Dict[str, int]:
        if self.params is not None:
            return dict(self.params)
        app = self.resolve_app()
        if app is None:
            raise ReproError(
                "RunSpec with a raw Program needs explicit params "
                "for this operation")
        return dict(app.dataset(self.dataset).params)

    def resolve_program(self) -> Program:
        if isinstance(self.app, Program):
            return self.app
        app = self.resolve_app()
        nprocs = 1 if self.mode == "seq" else self.nprocs
        return app.build_program(self.resolve_params(), nprocs)

    def resolve_opt(self) -> Optional[OptConfig]:
        if isinstance(self.opt, str):
            from repro.harness.modes import OPT_LEVELS
            try:
                return OPT_LEVELS[self.opt]
            except KeyError:
                raise ReproError(
                    f"unknown opt level {self.opt!r}; expected one of "
                    f"{sorted(OPT_LEVELS)}") from None
        return self.opt

    def resolve_telemetry(self) -> Optional[Telemetry]:
        if self.telemetry is True:
            return Telemetry()
        if self.telemetry is False or self.telemetry is None:
            return None
        return self.telemetry

    def resolve_profile(self):
        if self.profile is True:
            from repro.observe import WallProfiler
            return WallProfiler()
        if self.profile is False or self.profile is None:
            return None
        return self.profile


def run(spec: Union[RunSpec, str, AppSpec, Program], **overrides) -> RunOutcome:
    """Run per ``spec``; keyword arguments override/extend its fields."""
    if isinstance(spec, RunSpec):
        spec = replace(spec, **overrides) if overrides else spec
    else:
        spec = RunSpec(app=spec, **overrides)
    require(cell_of(spec.mode, spec.protocol, spec.data_plane,
                    perturbations_of(spec.faults, spec.transport)))
    tel = spec.resolve_telemetry()
    prof = spec.resolve_profile()

    if spec.mode == "seq":
        # Not a matrix cell: observation, not perturbation.
        if prof is not None or spec.monitor is not None:
            raise ReproError(
                "mode 'seq' has no simulation engine: profile/monitor "
                "do not apply")
        return run_seq(spec.resolve_program(), telemetry=tel)
    if spec.mode == "dsm":
        return run_dsm(spec.resolve_program(), nprocs=spec.nprocs,
                       opt=spec.resolve_opt(), config=spec.config,
                       page_size=spec.page_size, snapshot=spec.snapshot,
                       gc_threshold=spec.gc_threshold,
                       eager_diffing=spec.eager_diffing, telemetry=tel,
                       faults=spec.faults, transport=spec.transport,
                       protocol=spec.protocol,
                       data_plane=spec.data_plane, profile=prof,
                       monitor=spec.monitor)
    if spec.mode == "xhpf":
        return run_xhpf(spec.resolve_program(), nprocs=spec.nprocs,
                        config=spec.config, telemetry=tel,
                        faults=spec.faults, transport=spec.transport,
                        profile=prof, monitor=spec.monitor)
    # mp: needs the hand-coded main from the AppSpec.
    app = spec.resolve_app()
    if app is None:
        raise ReproError("mode 'mp' needs an app name or AppSpec, "
                         "not a raw Program")
    return run_mp(app, spec.resolve_params(), nprocs=spec.nprocs,
                  config=spec.config, telemetry=tel,
                  faults=spec.faults, transport=spec.transport,
                  profile=prof, monitor=spec.monitor)
