"""Per-page coherence timelines reconstructed from ``tm.*`` events.

The TreadMarks nodes emit a telemetry event at every site that changes a
page's protection state (``docs/protocol.md`` documents the state
machine; ``docs/observability.md`` lists the event kinds).  Replaying
those events rebuilds, for every ``(processor, page)`` pair, the
``(valid, write_enabled, twin)`` triple over simulated time — which is
enough to

* produce a **state-transition history** per page,
* rank **hot pages** (faults, diffs, bytes) and **multi-writer pages**
  (false-sharing candidates),
* and **check invariants**: the replay flags transitions the protocol
  can never legally produce, e.g. a diff applied to a page that was
  never invalidated, a write fault on an already-writable page, or a
  diff created with no twin to diff against.

Because the simulator is deterministic, a reconstruction is exactly
reproducible, so the invariant check doubles as a property-test oracle
(``tests/property/test_protocol_random.py``).

Reconstruction rules (event → state change, violation when the
precondition fails):

==================  =============================================  =======================================
event               precondition                                   state change
==================  =============================================  =======================================
``tm.read_fault``   page not valid                                 (service ends with ``tm.page_valid``)
``tm.write_fault``  page not write-enabled                         (service ends with ``tm.write_enable``)
``tm.invalidate``   page valid or write-enabled                    valid=False, write_enabled=False
``tm.twin``         no live twin                                   twin=True
``tm.diff_create``  live twin                                      twin=False (consumed)
``tm.diff_apply``   page not valid; invalidated before; writer≠pid —
``tm.page_valid``   —                                              valid=True
``tm.write_enable`` —                                              write_enabled=True
``tm.interval``     —                                              write_enabled=False for ``pages``
``tm.protect_down`` —                                              write_enabled=False for ``pages``
``tm.overwrite``    —                                              valid=True, write_enabled=True, twin=False
``tm.push_recv``    —                                              valid=True for ``pages``
``tm.gc_discard``   —                                              every page of the pid valid=True
``rec.crash``       —                                              every page of the pid invalid
==================  =============================================  =======================================

A ``rec.crash`` event (fail-stop node crash, ``repro.absence``) wipes
the victim's reconstructed states: every page becomes invalid with no
twin, and — because recovery replays every missed write notice before
the victim touches shared data again — the pages count as
invalidated-ever, so post-recovery diff applications are legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass
class PageState:
    """Reconstructed protection state of one page on one processor."""

    valid: bool = True
    write_enabled: bool = False
    twin: bool = False
    #: Has this (pid, page) ever received a write-notice invalidation?
    #: Diffs are only ever applied to pages that were invalidated first.
    invalidated_ever: bool = False

    def label(self) -> str:
        s = ("RW" if self.valid and self.write_enabled
             else "W" if self.write_enabled
             else "R" if self.valid else "INV")
        return s + "+twin" if self.twin else s


@dataclass(frozen=True)
class Transition:
    """One state-changing event on one page's timeline."""

    ts: float
    pid: int
    epoch: int
    kind: str          # short kind ("read_fault", "diff_apply", ...)
    state: str         # PageState.label() after the event
    detail: str = ""

    def __str__(self) -> str:
        return (f"{self.ts:12.1f}  P{self.pid}  e{self.epoch:<3d} "
                f"{self.kind:<13s} -> {self.state:<8s} {self.detail}")


@dataclass
class PageCounters:
    """Aggregate protocol activity on one page (all processors)."""

    page: int
    read_faults: int = 0
    write_faults: int = 0
    invalidations: int = 0
    twins: int = 0
    diffs_created: int = 0
    diffs_applied: int = 0
    diff_bytes: int = 0
    full_pages: int = 0
    home_flushes: int = 0
    home_applies: int = 0
    page_fetches: int = 0
    pages_served: int = 0
    writers: Set[int] = field(default_factory=set)
    readers: Set[int] = field(default_factory=set)

    @property
    def faults(self) -> int:
        return self.read_faults + self.write_faults

    @property
    def heat(self) -> int:
        """Ranking key: protocol work attributable to this page."""
        return (self.faults + self.invalidations + self.diffs_applied
                + self.page_fetches + self.home_applies)

    def as_dict(self) -> dict:
        return {
            "page": self.page, "read_faults": self.read_faults,
            "write_faults": self.write_faults,
            "invalidations": self.invalidations, "twins": self.twins,
            "diffs_created": self.diffs_created,
            "diffs_applied": self.diffs_applied,
            "diff_bytes": self.diff_bytes,
            "full_pages": self.full_pages,
            "home_flushes": self.home_flushes,
            "home_applies": self.home_applies,
            "page_fetches": self.page_fetches,
            "pages_served": self.pages_served,
            "writers": sorted(self.writers),
            "readers": sorted(self.readers),
        }


#: Event kinds the replay consumes (anything else is ignored).
_PAGE_KINDS = frozenset((
    "tm.read_fault", "tm.write_fault", "tm.invalidate", "tm.twin",
    "tm.diff_create", "tm.diff_apply", "tm.full_page", "tm.page_valid",
    "tm.write_enable", "tm.interval", "tm.protect_down", "tm.overwrite",
    "tm.push_recv", "tm.gc_discard", "rec.crash",
    "tm.home_flush", "tm.home_apply", "tm.page_fetch", "tm.page_serve",
))


class PageTimelines:
    """Replayed per-page coherence state over one run's event stream."""

    def __init__(self) -> None:
        #: (pid, page) -> reconstructed state.
        self.states: Dict[Tuple[int, int], PageState] = {}
        #: page -> time-ordered transitions (all pids interleaved).
        self.transitions: Dict[int, List[Transition]] = {}
        #: page -> aggregate counters.
        self.counters: Dict[int, PageCounters] = {}
        #: Human-readable invariant violations, in replay order.
        self.violations: List[str] = []
        #: Processors that crashed (``rec.crash``): their untouched
        #: pages default to invalid, not the boot default.
        self._crashed: Set[int] = set()
        #: page -> home pid, learned from the home-based protocols'
        #: events (flushes, fetches); empty under mw-lrc.
        self.homes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_telemetry(cls, tel) -> "PageTimelines":
        """Replay ``tel.bus`` (in emission order, which is causal for
        the deterministic engine) into page timelines."""
        tl = cls()
        for ev in tel.bus.events:
            if ev.kind in _PAGE_KINDS:
                tl._apply(ev)
        return tl

    def _state(self, pid: int, page: int) -> PageState:
        st = self.states.get((pid, page))
        if st is None:
            if pid in self._crashed:
                st = PageState(valid=False, invalidated_ever=True)
            else:
                st = PageState()
            self.states[(pid, page)] = st
        return st

    def _counter(self, page: int) -> PageCounters:
        c = self.counters.get(page)
        if c is None:
            c = self.counters[page] = PageCounters(page)
        return c

    def _flag(self, ev, why: str) -> None:
        self.violations.append(
            f"t={ev.ts:.1f} P{ev.pid} {ev.kind}"
            f"{'' if not ev.args else ' ' + repr(ev.args)}: {why}")

    def _record(self, ev, page: int, detail: str = "") -> None:
        st = self.states.get((ev.pid, page))
        label = st.label() if st is not None else "R"
        self.transitions.setdefault(page, []).append(Transition(
            ts=ev.ts, pid=ev.pid, epoch=ev.epoch,
            kind=ev.kind[3:], state=label, detail=detail))

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------

    def _apply(self, ev) -> None:
        args = ev.args or {}
        kind = ev.kind
        if kind == "tm.gc_discard":
            for (pid, page), st in self.states.items():
                if pid == ev.pid:
                    st.valid = True
            return
        if kind == "rec.crash":
            self._crashed.add(ev.pid)
            for (pid, page), st in self.states.items():
                if pid == ev.pid:
                    st.valid = False
                    st.write_enabled = False
                    st.twin = False
                    st.invalidated_ever = True
            return
        if kind in ("tm.interval", "tm.protect_down", "tm.overwrite",
                    "tm.push_recv"):
            for page in args.get("pages", ()):
                st = self._state(ev.pid, page)
                if kind == "tm.overwrite":
                    st.valid = True
                    st.write_enabled = True
                    st.twin = False
                    self._counter(page).writers.add(ev.pid)
                elif kind == "tm.push_recv":
                    st.valid = True
                else:   # interval close / explicit downgrade
                    st.write_enabled = False
                self._record(ev, page)
            return

        page = args.get("page")
        if page is None:
            return
        st = self._state(ev.pid, page)
        c = self._counter(page)

        if kind == "tm.read_fault":
            if st.valid:
                self._flag(ev, "read fault on a valid (readable) page")
            c.read_faults += 1
            c.readers.add(ev.pid)
        elif kind == "tm.write_fault":
            if st.write_enabled:
                self._flag(ev, "write fault on a write-enabled page")
            c.write_faults += 1
            c.writers.add(ev.pid)
        elif kind == "tm.invalidate":
            if not (st.valid or st.write_enabled):
                self._flag(ev, "invalidation of an already-invalid page")
            st.valid = False
            st.write_enabled = False
            st.invalidated_ever = True
            c.invalidations += 1
        elif kind == "tm.twin":
            if st.twin:
                self._flag(ev, "twin created while a twin is live")
            st.twin = True
            c.twins += 1
        elif kind == "tm.diff_create":
            if not st.twin:
                self._flag(ev, "diff created with no live twin")
            st.twin = False
            c.diffs_created += 1
            c.writers.add(ev.pid)
        elif kind == "tm.diff_apply":
            writer = args.get("writer")
            if writer == ev.pid and ev.pid not in self._crashed:
                # Post-crash the victim replays its full notice
                # sequence, own diffs included (the apply progress of
                # its checkpointed image died with it).
                self._flag(ev, "processor re-applied its own diff")
            if st.valid:
                self._flag(ev, "diff applied to a valid page")
            if not st.invalidated_ever:
                self._flag(ev, "diff applied to a never-invalidated "
                               "(never-fetched) page")
            c.diffs_applied += 1
            c.diff_bytes += args.get("bytes", 0)
            if writer is not None:
                c.writers.add(writer)
        elif kind == "tm.full_page":
            c.full_pages += 1
        elif kind == "tm.home_flush":
            if st.write_enabled:
                self._flag(ev, "home flush of a still-write-enabled page")
            home = args.get("home")
            if home == ev.pid:
                self._flag(ev, "home flushed a page to itself")
            known = self.homes.setdefault(page, home)
            if home != known:
                self._flag(ev, f"flush addressed to P{home} but the "
                               f"home is P{known}")
            c.home_flushes += 1
            c.writers.add(ev.pid)
        elif kind == "tm.home_apply":
            writer = args.get("writer")
            if writer == ev.pid:
                self._flag(ev, "home applied a flush of its own interval")
            if not st.valid:
                # The ordering argument (flush-ack precedes the release)
                # means a home's own copy is never invalid when a flush
                # lands — see repro.tm.backends.hlrc.
                self._flag(ev, "home applied a flush to an invalid copy")
            c.home_applies += 1
            c.diff_bytes += args.get("bytes", 0)
            if writer is not None:
                c.writers.add(writer)
        elif kind == "tm.page_fetch":
            if st.valid and not args.get("revalidate"):
                # A valid-but-stale copy (unapplied notices under
                # conservative validate hints) re-fetches whole and
                # says so; an unflagged fetch of a valid page is waste.
                self._flag(ev, "page fetch of an already-valid page")
            home = args.get("home")
            known = self.homes.setdefault(page, home)
            if home != known:
                self._flag(ev, f"fetch addressed to P{home} but the "
                               f"home is P{known}")
            st.valid = True
            c.page_fetches += 1
        elif kind == "tm.page_serve":
            if not st.valid:
                self._flag(ev, "home served a page from an invalid copy")
            c.pages_served += 1
        elif kind == "tm.page_valid":
            st.valid = True
        elif kind == "tm.write_enable":
            st.write_enabled = True
            c.writers.add(ev.pid)
        self._record(ev, page, detail=_detail(kind, args))

    # ------------------------------------------------------------------
    # Analyses.
    # ------------------------------------------------------------------

    def pages(self) -> List[int]:
        return sorted(self.counters)

    def hot_pages(self, n: int = 10) -> List[PageCounters]:
        """Pages ranked by protocol activity (faults + invalidations +
        diff applications)."""
        return sorted(self.counters.values(),
                      key=lambda c: (-c.heat, c.page))[:n]

    def multi_writer_pages(self, n: int = 10) -> List[PageCounters]:
        """False-sharing candidates: pages written by ≥2 processors,
        ranked by the invalidation churn they cause."""
        multi = [c for c in self.counters.values() if len(c.writers) >= 2]
        return sorted(multi, key=lambda c: (-c.invalidations, -c.heat,
                                            c.page))[:n]

    def timeline(self, page: int) -> List[Transition]:
        """Time-ordered transition history of one page."""
        return list(self.transitions.get(page, ()))

    def totals(self) -> Dict[str, int]:
        """Cluster-wide sums, reconcilable against ``TmStats``."""
        out = {"read_faults": 0, "write_faults": 0, "invalidations": 0,
               "twins_created": 0, "diffs_created": 0, "diffs_applied": 0,
               "diff_bytes_applied": 0, "full_pages_served": 0,
               "home_flushes": 0, "home_applies": 0, "page_fetches": 0,
               "pages_served": 0}
        for c in self.counters.values():
            out["read_faults"] += c.read_faults
            out["write_faults"] += c.write_faults
            out["invalidations"] += c.invalidations
            out["twins_created"] += c.twins
            out["diffs_created"] += c.diffs_created
            out["diffs_applied"] += c.diffs_applied
            out["diff_bytes_applied"] += c.diff_bytes
            out["full_pages_served"] += c.full_pages
            out["home_flushes"] += c.home_flushes
            out["home_applies"] += c.home_applies
            out["page_fetches"] += c.page_fetches
            out["pages_served"] += c.pages_served
        return out

    def as_dict(self, top: int = 10) -> dict:
        return {
            "pages": len(self.counters),
            "totals": self.totals(),
            "hot_pages": [c.as_dict() for c in self.hot_pages(top)],
            "multi_writer_pages": [c.as_dict()
                                   for c in self.multi_writer_pages(top)],
            "violations": list(self.violations),
        }


def _detail(kind: str, args: dict) -> str:
    parts = [f"{k}={v}" for k, v in args.items()
             if k not in ("page", "pages")]
    return " ".join(parts)
