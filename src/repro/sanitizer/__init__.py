"""repro.sanitizer: race detection + hint-soundness over telemetry.

The sanitizer consumes a run's unified telemetry event stream, recorded
with access events on and fed after the run (or reloaded from a JSONL
trace), and reports two families of defects the optimized DSM otherwise
turns into silent stale reads:

* data races: conflicting accesses not ordered by the LRC happens-
  before relation (lock chains, barriers, push deliveries), found with
  per-processor vector clocks (:mod:`repro.sanitizer.clocks`) against
  per-element shadow state (:mod:`repro.sanitizer.shadow`);
* unsound compiler hints: accesses escaping the Validate/Push sections
  that claimed to summarize them (:mod:`repro.sanitizer.hints`).

Typical use::

    from repro.sanitizer import sanitize_run

    outcome, report = sanitize_run("jacobi", opt="push")
    assert report.ok, report.render()

or over any recorded stream (a run traced with
``Telemetry(access_events=True)``)::

    report = sanitize_events(outcome.telemetry.bus.events, layout,
                             nprocs, opt=opt_cfg)
"""

from __future__ import annotations

from typing import List, Optional

from repro.sanitizer.clocks import SyncTracker
from repro.sanitizer.hints import SYNC_KINDS, HintChecker
from repro.sanitizer.report import (Finding, SanitizeReport,
                                    describe_event, name_element)
from repro.sanitizer.shadow import ShadowMemory
from repro.telemetry.events import pack_dims

__all__ = ["Sanitizer", "SanitizeReport", "Finding", "SyncTracker",
           "ShadowMemory", "HintChecker", "sanitize_run",
           "sanitize_events"]


def _wants_hint_checking(opt) -> bool:
    return bool(opt is not None and (opt.consistency_elimination
                                     or opt.sync_data_merge or opt.push))


class Sanitizer:
    """One pass over one run's event stream."""

    def __init__(self, layout, nprocs: int, opt=None,
                 hint_checking: Optional[bool] = None) -> None:
        self.layout = layout
        self.nprocs = nprocs
        self.opt = opt
        if hint_checking is None:
            hint_checking = _wants_hint_checking(opt)
        self.tracker = SyncTracker(nprocs)
        self.shadow = ShadowMemory(layout, nprocs)
        self.hints = HintChecker(layout, nprocs, enabled=hint_checking)
        self._events: List = []
        self._accesses = 0
        self._race_keys = {}
        self._races: List[Finding] = []

    # ------------------------------------------------------------------

    def feed(self, ev) -> None:
        """Consume one event, in bus append order."""
        idx = len(self._events)
        self._events.append(ev)
        kind = ev.kind
        if kind == "rt.read" or kind == "rt.write":
            self._on_access(ev, idx)
        elif kind in SyncTracker.KINDS:
            self.tracker.handle(ev)
            if kind in SYNC_KINDS:
                self.hints.on_sync(ev)
        elif kind == "tm.validate":
            self.hints.on_validate(ev)
        elif kind == "tm.interval":
            self.hints.on_interval(ev)

    def _on_access(self, ev, idx: int) -> None:
        self._accesses += 1
        pid = ev.pid
        array, dims = ev.args["array"], ev.args["dims"]
        if dims.__class__ is not tuple:         # lists: a JSONL replay
            dims = pack_dims(dims)
        # One numpy index for both checkers, from the data path's access
        # plan: worked out once per distinct section.
        info = self.layout.info(array)
        index = (info.plan.get(dims)
                 or self.layout.resolve_dims(info, dims))[1]
        is_write = ev.kind == "rt.write"
        conflicts = self.shadow.access(
            pid, is_write, array, index, self.tracker.clock(pid), idx)
        for prior_idx, prior_pid, elem, ckind in conflicts:
            key = (prior_pid, pid, array, ckind)
            found = self._race_keys.get(key)
            if found is not None:
                found.count += 1
                continue
            names = {"ww": "write/write", "rw": "read/write",
                     "wr": "write/read"}
            where = name_element(array, elem)
            found = Finding(
                category="race", kind="race", pid=pid, array=array,
                where=where,
                detail=(f"{names[ckind]} race on {where} between "
                        f"P{prior_pid} and P{pid}: no lock chain, "
                        f"barrier, or push orders them"),
                site=describe_event(ev),
                other=describe_event(self._events[prior_idx]),
                sync=(f"P{pid} {self.tracker.context(pid)}; "
                      f"P{prior_pid} {self.tracker.context(prior_pid)}"))
            self._race_keys[key] = found
            self._races.append(found)
        self.hints.on_access(ev, array, index)

    # ------------------------------------------------------------------

    def finish(self) -> SanitizeReport:
        tr = self.tracker
        problems = list(tr.unmatched)
        if tr.pending_barrier() is not None:
            problems.append(
                f"stream ends inside barrier episode "
                f"#{tr.pending_barrier()}")
        opt_name = None
        if self.opt is not None:
            opt_name = getattr(self.opt, "name", str(self.opt))
        report = SanitizeReport(
            nprocs=self.nprocs,
            opt=opt_name,
            hint_checking=self.hints.enabled,
            findings=self._races + self.hints.findings,
            events=len(self._events),
            accesses=self._accesses,
            bytes_checked=int(self.shadow.bytes_checked),
            sync_counts={"barriers": tr.barriers_completed,
                         "lock_grants": tr.lock_grants,
                         "pushes": tr.pushes},
            problems=problems,
        )
        # The pass is over.  The shadow state is megabytes: give it
        # back now, not whenever this object is collected.
        self.shadow = self.hints = None
        return report


# Re-exported run/replay drivers (import placed last: replay imports
# harness modules which are heavier than the core above).
from repro.sanitizer.replay import sanitize_events, sanitize_run  # noqa: E402
