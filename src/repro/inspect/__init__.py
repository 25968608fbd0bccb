"""Protocol inspector: analyses over the telemetry streams.

Three analyses over one traced run (see ``docs/observability.md``):

* :class:`~repro.inspect.timeline.PageTimelines` — per-page coherence
  state reconstructed from ``tm.*`` events: transition histories,
  hot-page and multi-writer/false-sharing rankings, invariant checks;
* :class:`~repro.inspect.contention.ContentionProfile` — wait time per
  lock id and per barrier epoch per processor;
* :class:`~repro.inspect.critpath.CriticalPath` — end-to-end simulated
  time attributed to compute/protocol/wait/comm segments by walking the
  DES dependency graph backward from the finish.

:class:`~repro.inspect.report.InspectReport` bundles all three with
reconciliation against ``TmStats``/``NetStats``; :mod:`.baseline` turns
the deterministic counters into CI regression gates
(``python -m repro check``).
"""

from repro.inspect.baseline import (CheckResult, check, compare,
                                    compare_entry, default_path)
from repro.inspect.contention import (BarrierEpoch, ContentionProfile,
                                      LockProfile)
from repro.inspect.critpath import CriticalPath, Segment
from repro.inspect.report import InspectReport
from repro.inspect.timeline import (PageCounters, PageState,
                                    PageTimelines, Transition)

__all__ = [
    "PageState", "Transition", "PageCounters", "PageTimelines",
    "LockProfile", "BarrierEpoch", "ContentionProfile",
    "CriticalPath", "Segment",
    "InspectReport",
    "CheckResult", "check", "compare", "compare_entry", "default_path",
]
