"""Uniform run outcomes for every execution mode.

All four modes share the :class:`RunOutcome` protocol:

``.mode``
    Which system produced this outcome ("seq", "dsm", "mp", "xhpf").
``.time``
    Simulated execution time in microseconds.
``.stats``
    Aggregated :class:`~repro.tm.stats.TmStats` for DSM runs; ``None``
    for modes without protocol counters.
``.arrays``
    Final contents of the checked shared arrays.
``.telemetry``
    The :class:`~repro.telemetry.Telemetry` handle when the run was
    traced, else ``None``.
``.messages`` / ``.data_bytes``
    Network totals (0 for sequential runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.lang.nodes import Program
from repro.mp.system import MpRunResult
from repro.net.stats import NetStats
from repro.tm.stats import TmStats
from repro.tm.system import RunResult


class RunOutcome:
    """Protocol base shared by all four mode outcomes.

    Deliberately defines only plain class attributes for the optional
    slots (``stats``, ``telemetry``): data descriptors here would shadow
    same-named dataclass fields in subclasses.
    """

    mode = "?"
    #: Aggregated TmStats (DSM only).
    stats = None
    #: Telemetry handle when the run was traced.
    telemetry = None
    #: :class:`repro.observe.WallProfiler` when the run was wall-clock
    #: profiled (``RunSpec(profile=True)``), else ``None``.  Attached by
    #: the runner, not a dataclass field, to keep the legacy
    #: constructors unchanged.
    profile = None

    @property
    def messages(self) -> int:
        net = getattr(self, "net", None)
        return 0 if net is None else net.messages

    @property
    def data_bytes(self) -> int:
        net = getattr(self, "net", None)
        return 0 if net is None else net.bytes


@dataclass
class SeqOutcome(RunOutcome):
    """Uniprocessor reference run (Table 1 baseline)."""

    time: float                      # simulated microseconds
    arrays: Dict[str, np.ndarray]
    telemetry: Optional[object] = None

    mode = "seq"


@dataclass
class DsmOutcome(RunOutcome):
    """TreadMarks DSM run (optionally compiler-optimized)."""

    run: RunResult
    arrays: Dict[str, np.ndarray]
    program: Program
    telemetry: Optional[object] = None

    mode = "dsm"

    @property
    def time(self) -> float:
        return self.run.time

    @property
    def stats(self) -> TmStats:
        return self.run.stats

    @property
    def per_proc(self) -> List[TmStats]:
        return self.run.per_proc

    @property
    def net(self) -> NetStats:
        return self.run.net


@dataclass
class MpOutcome(RunOutcome):
    """Hand-coded message-passing (PVMe) run."""

    run: MpRunResult
    arrays: Dict[str, np.ndarray]
    telemetry: Optional[object] = None

    mode = "mp"

    @property
    def time(self) -> float:
        return self.run.time

    @property
    def net(self) -> NetStats:
        return self.run.net


@dataclass
class XhpfOutcome(RunOutcome):
    """Compiler-generated message-passing (XHPF) run."""

    time: float
    net: NetStats
    arrays: Dict[str, np.ndarray]
    telemetry: Optional[object] = None

    mode = "xhpf"


__all__ = [
    "RunOutcome", "SeqOutcome", "DsmOutcome", "MpOutcome", "XhpfOutcome",
]
