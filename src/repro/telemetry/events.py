"""Structured protocol events and the bus that records them.

Every instrumented layer (engine, network, TreadMarks protocol, the
augmented run-time interface, the interpreter) reports through one
:class:`EventBus`.  Event kinds follow a dotted taxonomy::

    sim.*   process lifecycle               (sim.proc_start, sim.proc_done)
    net.*   message traffic                 (net.msg)
    tm.*    protocol activity               (tm.read_fault, tm.diff_apply, ...)
    rt.*    shared-memory accesses          (rt.read, rt.write)
    app.*   application phase markers       (app.phase)

The full taxonomy is documented in ``docs/observability.md``.

``rt.*`` access events and the section details on ``tm.validate`` /
``tm.push`` carry :class:`repro.memory.section.Section` geometry as
plain nested tuples — ``pack_sections`` / ``unpack_sections`` below are
the one canonical encoding, shared by the emitters in ``tm/`` and the
consumers in ``repro.sanitizer`` (which must also accept the list-of-
lists shape that a JSONL round trip produces).

Overhead discipline: instrumented code holds a reference that is ``None``
when telemetry is off, so a disabled run pays one attribute test per
potential event.  A bus that exists but is disabled drops events at the
``emit`` boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


def pack_dims(dims) -> tuple:
    """Section dims as hashable JSON-safe nested tuples."""
    return tuple((int(lo), int(hi), int(step)) for lo, hi, step in dims)


def pack_sections(sections) -> tuple:
    """Encode sections as ``((array, dims), ...)`` for event args."""
    return tuple((s.array, pack_dims(s.dims)) for s in sections)


def unpack_sections(packed):
    """Decode ``pack_sections`` output (tuples or JSONL lists)."""
    from repro.memory.section import Section
    return [Section(array, pack_dims(dims)) for array, dims in packed]


class Event(NamedTuple):
    """One timestamped occurrence on one simulated processor.  (A
    tuple, not a dataclass: the bus builds one per event, and a frozen
    dataclass costs three times as much to construct.)"""

    ts: float                       # simulated microseconds
    pid: int                        # reporting processor
    kind: str                       # dotted taxonomy name
    epoch: int = 0                  # barrier epoch of the reporting pid
    args: Optional[dict] = None     # kind-specific details

    def as_dict(self) -> dict:
        d = {"ts": self.ts, "pid": self.pid, "kind": self.kind,
             "epoch": self.epoch}
        if self.args:
            d["args"] = self.args
        return d


class EventBus:
    """Ordered in-memory event log with optional live subscribers."""

    __slots__ = ("enabled", "events", "_subscribers")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []

    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` for every subsequently emitted event."""
        self._subscribers.append(fn)

    # ------------------------------------------------------------------

    def emit(self, ts: float, pid: int, kind: str, epoch: int = 0,
             args: Optional[dict] = None) -> None:
        if not self.enabled:
            return
        ev = Event(ts, pid, kind, epoch, args)
        self.events.append(ev)
        if self._subscribers:
            for fn in self._subscribers:
                fn(ev)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Number of recorded events per kind."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def filter(self, kinds: Optional[Iterable[str]] = None,
               pid: Optional[int] = None,
               prefix: Optional[str] = None) -> List[Event]:
        """Time-ordered events restricted by kind set / pid / kind prefix."""
        kindset = set(kinds) if kinds is not None else None
        out = []
        for ev in sorted(self.events, key=lambda e: (e.ts, e.pid)):
            if kindset is not None and ev.kind not in kindset:
                continue
            if prefix is not None and not ev.kind.startswith(prefix):
                continue
            if pid is not None and ev.pid != pid:
                continue
            out.append(ev)
        return out
