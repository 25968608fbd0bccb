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
``.net`` / ``.messages`` / ``.data_bytes``
    The run's :class:`~repro.net.stats.NetStats` and its totals
    (``None`` / 0 for sequential runs).
``.profile``
    The :class:`~repro.observe.WallProfiler` when the run was
    wall-clock profiled, else ``None``.
``.record()``
    The finished run as numbers; see :meth:`RunOutcome.record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.lang.nodes import Program
from repro.mp.system import MpRunResult
from repro.net.stats import NetStats
from repro.tm.stats import TmStats
from repro.tm.system import RunResult


#: Protocol counters a record pins exactly (integers; any drift is a
#: regression).
COUNT_FIELDS = (
    "read_faults", "write_faults", "protect_ops", "twins_created",
    "diffs_created", "diffs_applied", "diff_bytes_applied",
    "full_pages_served", "lock_acquires", "lock_local_acquires",
    "barriers", "validates", "pushes", "invalidations",
    # Home-based backends (all zero under the default mw-lrc; older
    # baseline files without them compare as zero).
    "home_flushes", "home_applies", "page_fetches", "pages_served",
    "home_migrations",
    # One-sided data plane (all zero on the default two-sided plane).
    "onesided_reads", "onesided_writes", "onesided_lock_fast",
    "onesided_lock_retries", "onesided_fallbacks",
)


class RunOutcome:
    """Protocol base shared by all four mode outcomes.

    Deliberately defines only plain class attributes for the optional
    slots (``stats``, ``net``, ``telemetry``, ``profile``): data
    descriptors here would shadow same-named dataclass fields in
    subclasses.
    """

    mode = "?"
    #: Aggregated TmStats (DSM only).
    stats = None
    #: The run's :class:`~repro.net.stats.NetStats` (every mode with a
    #: network: all but ``seq``).
    net = None
    #: Telemetry handle when the run was traced.
    telemetry = None
    #: :class:`repro.observe.WallProfiler` when the run was wall-clock
    #: profiled (``RunSpec(profile=True)``), else ``None``.
    profile = None

    def __post_init__(self) -> None:
        tel = self.telemetry
        if tel is not None and self.net is not None:
            tel.metrics_total = self.metrics_total()

    @property
    def messages(self) -> int:
        return 0 if self.net is None else self.net.messages

    @property
    def data_bytes(self) -> int:
        return 0 if self.net is None else self.net.bytes

    def record(self) -> dict:
        """The finished run as numbers: the one place an outcome
        becomes a baseline entry, a bench cell, an inspection summary
        or ``metrics_total``.

        ``time_us`` / ``messages`` / ``data_bytes`` for every mode; a
        DSM run adds ``counts`` (its :data:`COUNT_FIELDS`),
        ``messages_by_kind`` and, when the one-sided plane carried
        anything, ``onesided``.  Everything but ``time_us`` is an exact
        integer of a deterministic simulation.
        """
        rec: dict = {
            "time_us": self.time,
            "messages": self.messages,
            "data_bytes": self.data_bytes,
        }
        stats, net = self.stats, self.net
        if stats is not None:
            rec["counts"] = {f: getattr(stats, f) for f in COUNT_FIELDS}
            rec["messages_by_kind"] = {
                k: net.by_kind[k] for k in sorted(net.by_kind)}
            if net.onesided_ops:
                rec["onesided"] = {
                    "ops": net.onesided_ops,
                    "batches": net.onesided_batches,
                    "bytes": net.onesided_bytes,
                    "cas_failures": net.onesided_cas_failures,
                }
        return rec

    def metrics_total(self) -> Dict[str, float]:
        """A trace's ``summary()["metrics_total"]``: what :meth:`record`
        pins, under flat names (``net.messages``, ``net.bytes``,
        ``net.msgs.<kind>``, ``tm.<counter>``), filled out with what it
        leaves unpinned -- per-kind bytes, the per-kind split of a
        message-passing run, and the rest of ``TmStats`` (the simulated
        time breakdown, ``segv``)."""
        net = self.net
        total = {"net.messages": net.messages, "net.bytes": net.bytes}
        for kind, n in net.by_kind.items():
            total[f"net.msgs.{kind}"] = n
            total[f"net.bytes.{kind}"] = net.bytes_by_kind[kind]
        if self.stats is not None:
            total.update((f"tm.{k}", v)
                         for k, v in self.stats.as_dict().items())
        return dict(sorted(total.items()))


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
    profile: Optional[object] = None

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
    profile: Optional[object] = None

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
    #: Required: a bare annotation would take the base's class-level
    #: ``None`` for its default.
    net: NetStats = field()
    arrays: Dict[str, np.ndarray]
    telemetry: Optional[object] = None
    profile: Optional[object] = None

    mode = "xhpf"


__all__ = [
    "RunOutcome", "SeqOutcome", "DsmOutcome", "MpOutcome", "XhpfOutcome",
]
