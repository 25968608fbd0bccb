"""Hint-soundness checking: do the compiler's claims cover reality?

At the consistency-eliminating opt levels (READ_ALL/WRITE_ALL, merge,
push) the run-time *removes* twins, diffs and page protection inside
hinted sections — an access that escapes its hint no longer faults, it
silently reads or loses data.  This checker replays the access stream
against the hints actually issued and enforces three rules:

R1 (region coverage)
    Within one sync-delimited region, once a processor has issued any
    validate granting read (resp. write) coverage for an array, every
    later read (resp. write) of that array in the region must fall
    inside the union of such coverage.  Arrays with no hint in the
    region are exempt: the compiler declared them unanalyzable (e.g.
    indirect accesses) and left full fault-based consistency armed for
    them.  A Push's declared read sections seed the following region's
    coverage the same way a fetching validate would.

R2 (overwrite claim)
    A WRITE_ALL/READ_WRITE_ALL validate suppresses twin creation for
    fully-covered pages; the protocol then treats the whole page as
    written ("overwrite" write notices dominate concurrent diffs).  So
    an overwrite page retired by ``tm.interval`` must not be *partially*
    written: some bytes fresh, some stale, all propagated as current.
    Pages with zero program writes are exempt — an overwrite page is
    valid (fetched) when marked, so propagating its unchanged content
    is merely redundant, not wrong (fft3d's trailing READ_WRITE_ALL
    validate before the exit barrier is exactly this shape).

R3 (push write claim)
    ``Push`` distributes the written sections declared by the compiler
    instead of creating write notices for the receivers to pull.
    Every byte actually written in the interval ending at the push must
    be inside the declared write sections, else receivers that should
    have seen it never will.

Region boundaries are the processor's own sync events (lock acquire /
release, barrier, push).  ``Validate_w_sync`` hints are buffered and
take effect at the next sync event, mirroring the run-time's deferred
fetch.  Coverage from an access type follows
:attr:`repro.rt.access.AccessType.covers_read` / ``covers_write``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.rt.access import AccessType
from repro.sanitizer.report import Finding, describe_event, name_element
from repro.sanitizer.shadow import per_array, trues
from repro.telemetry.events import unpack_sections

#: Events that end a processor's current coverage region.
SYNC_KINDS = ("tm.lock_acquire", "tm.lock_release", "tm.barrier",
              "tm.push")


class HintChecker:
    """Replays validates/pushes/accesses into coverage obligations, kept
    per processor and element (shaped and indexed as the shadow is)."""

    def __init__(self, layout, nprocs: int, enabled: bool = True) -> None:
        self.layout = layout
        self.enabled = enabled
        #: For reads (False) and writes (True): the covered elements,
        #: and per pid the arrays with any (what a region's end clears).
        self._cov = {write: (per_array(layout, bool, nprocs=nprocs),
                             [set() for _ in range(nprocs)])
                     for write in (False, True)}
        #: Elements written by each pid in its current interval (R2/R3).
        self._wlog = per_array(layout, bool, nprocs=nprocs)
        self._pending: List[List[Tuple[list, AccessType]]] = [
            [] for _ in range(nprocs)]
        self.findings: List[Finding] = []
        self._seen: Dict[tuple, Finding] = {}

    # ------------------------------------------------------------------
    # Region lifecycle.
    # ------------------------------------------------------------------

    def on_sync(self, ev) -> None:
        """A sync event on ``ev.pid``: close the region, apply pending."""
        if not self.enabled:
            return
        pid = ev.pid
        if ev.kind == "tm.push":
            self._check_push_writes(ev)
        for cov, oblig in self._cov.values():
            for name in oblig[pid]:
                cov[name][..., pid] = False
            oblig[pid].clear()
        pending, self._pending[pid] = self._pending[pid], []
        for sections, access in pending:
            self._apply(pid, sections, access)
        if ev.kind == "tm.push":
            # The push's declared read sections are exactly what the
            # following region may read (exchange target or locally
            # owned); they seed the post-push coverage.
            self._cover(False, pid,
                        unpack_sections((ev.args or {}).get("reads", ())))

    def on_validate(self, ev) -> None:
        if not self.enabled:
            return
        args = ev.args or {}
        sections = unpack_sections(args.get("sections", ()))
        access = AccessType(args["access"])
        if args.get("w_sync"):
            # Takes effect with the fetch, at the next sync operation.
            self._pending[ev.pid].append((sections, access))
        else:
            self._apply(ev.pid, sections, access)

    def _apply(self, pid: int, sections, access: AccessType) -> None:
        if access.covers_read:
            self._cover(False, pid, sections)
        if access.covers_write:
            self._cover(True, pid, sections)

    def _cover(self, write: bool, pid: int, sections) -> None:
        cov, oblig = self._cov[write]
        for sec in sections:
            cov[sec.array][self.layout.resolve(sec)[1] + (pid,)] = True
            oblig[pid].add(sec.array)

    # ------------------------------------------------------------------
    # Access checking (R1) and the write log.
    # ------------------------------------------------------------------

    def on_access(self, ev, array: str, index: tuple) -> None:
        """``ev`` accessed the section of ``array`` with numpy ``index``."""
        if not self.enabled:
            return
        pid = ev.pid
        at = index + (pid,)
        write = ev.kind == "rt.write"
        if write:
            self._wlog[array][at] = True
        cov, oblig = self._cov[write]
        if array not in oblig[pid]:
            return
        covered = cov[array][at]
        if covered.all():
            return
        where = name_element(array, trues(~covered, index)[0])
        kind = "uncovered-write" if write else "uncovered-read"
        self._add((kind, pid, array), ev, kind, array, where,
                  f"P{pid} {'write' if write else 'read'} of {where} "
                  f"escapes the region's validated sections")

    # ------------------------------------------------------------------
    # Interval retirement (R2) and push claims (R3).
    # ------------------------------------------------------------------

    def on_interval(self, ev) -> None:
        if not self.enabled:
            return
        # A crash-closed interval (``crash=True``) retires whatever the
        # victim had written so far; a partially-written overwrite page
        # there is the crash's fault, not a bad hint.
        if not (ev.args or {}).get("crash"):
            for page in (ev.args or {}).get("overwrite", ()):
                self._check_overwrite(ev, page)
        for log in self._wlog.values():
            log[..., ev.pid] = False

    def _check_overwrite(self, ev, page: int) -> None:
        """R2 on one page: a run of one array's elements (in address
        order) and, after the array's last, padding nobody writes."""
        pid = ev.pid
        lo = page * self.layout.page_size
        hi = lo + self.layout.page_size
        info = [a for a in self.layout.arrays.values() if a.base <= lo][-1]
        item = info.itemsize
        first = (lo - info.base) // item
        last = min(-(-(hi - info.base) // item), info.nbytes // item)
        log = self._wlog[info.name][..., pid]
        log = log.reshape(-1, order="F")[first:last]
        padded = hi > info.base + info.nbytes
        if not log.any() or (log.all() and not padded):
            return
        # Each element's bytes on this page (one may straddle its edge).
        starts = info.base + item * np.arange(first, last)
        on_page = np.minimum(starts + item, hi) - np.maximum(starts, lo)
        missing = self.layout.page_size - int(on_page[log].sum())
        unwritten = np.flatnonzero(~log)
        where = f"byte {info.base + info.nbytes}" if not len(unwritten) \
            else name_element(info.name, np.unravel_index(
                first + unwritten[0], info.shape, order="F"))
        self._add(("partial-overwrite", pid, page), ev, "partial-overwrite",
                  where, where,
                  f"P{pid} interval {ev.args['index']} retired "
                  f"partially-written overwrite page {page}: {where} and "
                  f"{missing} bytes total were never written, yet the "
                  f"WRITE_ALL hint propagates the whole page as fresh")

    def _check_push_writes(self, ev) -> None:
        pid = ev.pid
        claimed = [(sec.array, self.layout.resolve(sec)[1]) for sec in
                   unpack_sections((ev.args or {}).get("writes", ()))]
        where, nbytes = None, 0
        for name, log in self._wlog.items():    # in address order
            stray = log[..., pid].copy()
            for array, index in claimed:
                if array == name:
                    stray[index] = False
            if stray.any():
                where = where or name_element(name, trues(stray)[0])
                nbytes += int(stray.sum()) * self.layout.arrays[name].itemsize
        if where is not None:
            self._add(("unpushed-write", pid, where), ev, "unpushed-write",
                      where.split("[")[0], where,
                      f"P{pid} wrote {where} ({nbytes} bytes) before a "
                      f"Push whose write sections do not declare it; "
                      f"receivers will never see the update")

    # ------------------------------------------------------------------

    def _add(self, key: tuple, ev, kind: str, array: str, where: str,
             detail: str) -> None:
        """A finding at ``ev``, folded into the one ``key`` has if any."""
        prior = self._seen.get(key)
        if prior is not None:
            prior.count += 1
            return
        self._seen[key] = finding = Finding(
            category="hint", kind=kind, pid=ev.pid, array=array,
            where=where, detail=detail, site=describe_event(ev))
        self.findings.append(finding)
