"""One finished run, whatever system produced it.

:class:`RunOutcome` is what :func:`repro.harness.spec.run` returns for
every mode; the fields a mode has no use for stay ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.lang.nodes import Program
from repro.net.stats import NetStats
from repro.tm.stats import TmStats


#: Protocol counters a record pins exactly (integers; any drift is a
#: regression).
COUNT_FIELDS = (
    "read_faults", "write_faults", "protect_ops", "twins_created",
    "diffs_created", "diffs_applied", "diff_bytes_applied",
    "full_pages_served", "lock_acquires", "lock_local_acquires",
    "barriers", "validates", "pushes", "invalidations",
    # Home-based hlrc (all zero under the default mw-lrc; older
    # baseline files without them compare as zero).
    "home_flushes", "home_applies", "page_fetches", "pages_served",
    # One-sided data plane (all zero on the default two-sided plane).
    "onesided_reads", "onesided_writes", "onesided_lock_fast",
    "onesided_lock_retries", "onesided_fallbacks",
)


@dataclass
class RunOutcome:
    """One finished run: simulated time, counters and final arrays."""

    #: Which system produced it: "seq", "dsm", "mp" or "xhpf".
    mode: str
    #: Simulated execution time in microseconds.
    time: float
    #: Final contents of the checked shared arrays (empty for a DSM run
    #: with ``snapshot=False``).
    arrays: Dict[str, np.ndarray]
    #: Aggregated :class:`~repro.tm.stats.TmStats`, and each
    #: processor's (DSM only).
    stats: Optional[TmStats] = None
    per_proc: Optional[List[TmStats]] = None
    #: The run's :class:`~repro.net.stats.NetStats` (every mode with a
    #: network: all but ``seq``).
    net: Optional[NetStats] = None
    #: Each processor's CPU tally: simulated microseconds per charge
    #: name (:attr:`repro.sim.engine.Process.tally`; every mode with an
    #: engine).  The ``TmStats`` CPU fields are read from it.
    tally: Optional[List[Dict[str, float]]] = None
    #: The program the DSM ran, after the compiler's transformation.
    program: Optional[Program] = None
    #: The :class:`~repro.telemetry.Telemetry` when the run was traced.
    telemetry: Optional[object] = None
    #: The :class:`~repro.observe.WallProfiler` when the run was
    #: wall-clock profiled (``RunSpec(profile=True)``).
    profile: Optional[object] = None

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


__all__ = ["RunOutcome"]
