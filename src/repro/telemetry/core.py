"""The Telemetry facade: one object owning the event bus and spans.

A :class:`Telemetry` instance is created per run (or passed pre-built
through :class:`repro.harness.RunSpec`) and bound to the run's clock.
Instrumented code holds ``tel = <system>.telemetry`` which is ``None``
when telemetry is off — the only cost a disabled run pays is that
attribute test.

Usage::

    from repro.harness import RunSpec, run

    out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                      nprocs=4, telemetry=True))
    out.telemetry.counts()                    # events per kind
    out.telemetry.summary()["metrics_total"] # out.stats/out.net, flat
    out.telemetry.phase_profile()            # per-phase time breakdown
    out.telemetry.write_chrome_trace("trace.json")
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.telemetry.events import EventBus
from repro.telemetry.spans import SpanLog


class Telemetry:
    """Event bus + span log for one run."""

    def __init__(self, events: bool = True, spans: bool = True,
                 access_events: bool = False) -> None:
        self.bus = EventBus(enabled=events)
        self.spans = SpanLog(enabled=spans)
        #: The run's own counters under flat names, set by the run's
        #: outcome (:meth:`repro.harness.outcome.RunOutcome.metrics_total`).
        self.metrics_total: Dict[str, float] = {}
        #: Record every shared-memory access (``rt.read``/``rt.write``).
        #: Off by default: the access stream is orders of magnitude
        #: denser than protocol events and only the sanitizer wants it.
        self.access_events = access_events
        self.nprocs = 0
        self._clock: Callable[[], float] = lambda: 0.0
        self._epoch: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Binding to a run.
    # ------------------------------------------------------------------

    def bind(self, clock: Callable[[], float],
             nprocs: Optional[int] = None) -> "Telemetry":
        """Attach to a run's virtual clock (and processor count)."""
        self._clock = clock
        if nprocs is not None:
            self.nprocs = max(self.nprocs, nprocs)
        return self

    def bind_engine(self, engine, nprocs: Optional[int] = None) \
            -> "Telemetry":
        """Attach to a simulation engine; the engine reports lifecycle
        events through this object."""
        engine.telemetry = self
        return self.bind(lambda: engine.now, nprocs)

    def now(self) -> float:
        return self._clock()

    def epoch(self, pid: int) -> int:
        """Barrier epoch of ``pid``: barriers entered so far."""
        return self._epoch.get(pid, 0)

    # ------------------------------------------------------------------
    # Emission API used by instrumented code.
    # ------------------------------------------------------------------

    def event(self, pid: int, kind: str, **args) -> None:
        """Record a point event on ``pid``'s track."""
        if self.bus.enabled:
            self.bus.emit(self._clock(), pid, kind,
                          self._epoch.get(pid, 0), args or None)

    def span(self, pid: int, name: str, t0: float, t1: float) -> None:
        """Record a completed interval on ``pid``'s track."""
        self.spans.record(pid, name, t0, t1, self._epoch.get(pid, 0))

    def cpu(self, pid: int, name: str, cost: float) -> None:
        """A CPU burst of ``cost`` us placed at the current time."""
        if cost > 0:
            now = self._clock()
            self.spans.record(pid, name, now, now + cost,
                              self._epoch.get(pid, 0))

    def access(self, pid: int, kind: str, array: str, dims,
               pages) -> None:
        """One shared-memory access (``kind`` is ``rt.read``/``rt.write``).

        Only emitted when :attr:`access_events` is set; callers should
        gate on that flag themselves to skip argument marshalling.
        The bus check comes before any packing so a disabled bus pays
        nothing for the (very dense) access stream."""
        bus = self.bus
        if self.access_events and bus.enabled:
            bus.emit(self._clock(), pid, kind, self._epoch.get(pid, 0),
                     {"array": array, "dims": dims,
                      "pages": tuple(pages)})

    def barrier(self, pid: int) -> None:
        """Enter a barrier: advance the epoch and record the event."""
        self._epoch[pid] = self._epoch.get(pid, 0) + 1
        self.event(pid, "tm.barrier")

    def marker(self, pid: int, label: str) -> None:
        """Application phase marker (e.g. a named barrier site)."""
        self.event(pid, "app.phase", label=label)

    def message(self, src: int, dst: int, kind: str, nbytes: int) -> None:
        """One message sent (``nbytes`` includes the header, matching
        :class:`repro.net.stats.NetStats` accounting)."""
        self.event(src, "net.msg", to=dst, msg=kind, bytes=nbytes)

    # ------------------------------------------------------------------
    # Analysis conveniences.
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return self.bus.counts()

    def pids(self) -> List[int]:
        """Every processor that reported anything (or is declared)."""
        pids = set(range(self.nprocs))
        pids.update(ev.pid for ev in self.bus.events)
        pids.update(s.pid for s in self.spans.spans)
        return sorted(pids)

    def phase_profile(self, pid: Optional[int] = None,
                      by_epoch: bool = False):
        """Span durations per phase name (or per (epoch, name))."""
        if by_epoch:
            return self.spans.by_epoch(pid)
        return self.spans.by_phase(pid)

    def summary(self) -> dict:
        """Compact JSON-friendly overview of the whole run."""
        return {
            "nprocs": self.nprocs,
            "events": len(self.bus),
            "spans": len(self.spans),
            "event_counts": self.counts(),
            "metrics_total": self.metrics_total,
            "phase_us": self.phase_profile(),
        }

    # ------------------------------------------------------------------
    # Exporters (implemented in repro.telemetry.export).
    # ------------------------------------------------------------------

    def chrome_trace(self) -> dict:
        from repro.telemetry.export import chrome_trace
        return chrome_trace(self)

    def write_chrome_trace(self, path) -> None:
        from repro.telemetry.export import write_chrome_trace
        write_chrome_trace(self, path)

    def events_jsonl(self) -> str:
        from repro.telemetry.export import events_jsonl
        return events_jsonl(self)

    def write_jsonl(self, path) -> None:
        from repro.telemetry.export import write_jsonl
        write_jsonl(self, path)

    @staticmethod
    def from_jsonl(path) -> "Telemetry":
        """Reload a JSONL export for offline analysis (see
        :func:`repro.telemetry.export.telemetry_from_jsonl`)."""
        from repro.telemetry.export import telemetry_from_jsonl
        return telemetry_from_jsonl(path)
