"""Per-processor TreadMarks protocol engine with the augmented interface.

One :class:`TmNode` exists per simulated processor.  It owns the
processor's private image of the shared address space, the page table, the
lazy-release-consistency bookkeeping (vector clock, intervals, write
notices, diffs) and the half of every synchronization operation that is
about consistency (interval close, notices, ``Validate_w_sync``, GC).
It also implements the paper's augmented run-time interface:
:meth:`validate`, :meth:`validate_w_sync` and :meth:`push`.

The *data movement* half of the protocol — where a faulting processor
gets page contents, what a release does with an interval's
modifications, whether a page is twinned — lives in a pluggable
:class:`~repro.tm.coherence.CoherenceBackend` (``node.coherence``); see
:mod:`repro.tm.backends` for the registered protocols.

The lock protocol and the barrier master — the role state a node keeps
for its peers, which :mod:`repro.absence` takes custody of — live in
:class:`~repro.tm.roles.NodeRoles` (``node.roles``).

Protocol message kinds
----------------------

========================  =====================================================
``lock_req``              lock acquire sent to the manager (carries vc)
``lock_fwd``              manager forwards the request to the last requester
``lock_grant``            token + write notices (+ piggy-backed diffs)
``barrier_arrive``        client vc + fresh write notices (+ sync fetch reqs)
``barrier_depart``        master's merged notices (+ forwarded fetch reqs)
``push_data``             raw section bytes exchanged by ``Push``
========================  =====================================================

Backend-owned kinds: ``diff_req``/``diff_resp``/``diff_donate``
(mw-lrc), ``home_flush``/``home_flush_ack``/``page_req``/``page_resp``
(hlrc).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ProtocolError
from repro.memory.section import Section
from repro.rt.access import AccessType
from repro.tm.coherence import SyncFetchRequest, _WsyncEntry
from repro.tm.diffs import Diff, apply_diff, full_page_diff, make_diff
from repro.tm.meta import (IntervalRecord, PageMeta, interval_wire_bytes,
                           VC_ENTRY_BYTES)
from repro.tm.roles import NodeRoles
from repro.tm.stats import TmStats, WAIT_FIELDS
from repro.memory.layout import MemoryImage

Key = Tuple[int, int]          # (writer, interval index)
DiffKey = Tuple[int, int, int]  # (writer, interval index, page)


_INDEX = attrgetter("index")


class _Atomic:
    """``with node._atomic():`` — a plain enter/exit pair (entered
    tens of thousands of times per run; a generator costs more)."""

    __slots__ = ("node",)

    def __init__(self, node: "TmNode") -> None:
        self.node = node

    def __enter__(self) -> None:
        self.node._atomic_depth += 1

    def __exit__(self, *exc) -> None:
        node = self.node
        node._atomic_depth -= 1
        if node._atomic_depth == 0 and node._deferred_cost:
            cost, node._deferred_cost = node._deferred_cost, 0.0
            if not node.offline:
                node.ep.charge(cost)


class TmNode:
    """One processor's DSM engine (protocol + augmented interface)."""

    def __init__(self, system, proc, endpoint) -> None:
        self.sys = system
        self.proc = proc
        self.ep = endpoint
        self.pid = proc.pid
        self.nprocs = system.nprocs
        self.cfg = system.config
        self.layout = system.layout
        self.image = MemoryImage(self.layout)
        self.pages = [PageMeta(i) for i in range(self.layout.npages)]
        self.stats = TmStats()
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` keeps
        #: every emit site down to a single attribute test.
        self.tel = system.telemetry
        #: Optional :class:`repro.observe.WallProfiler`; same ``None``
        #: discipline — one attribute test per potential scope.
        self.prof = system.profile
        #: Post-run reconciliation mode: suppress cost charging and stats.
        self.offline = False
        self._atomic_depth = 0
        self._deferred_cost = 0.0
        self._mask = _Atomic(self)
        #: Optional :class:`repro.absence.AbsenceManager`; set when the
        #: fault plan schedules node crashes or membership events.
        #: ``None`` keeps every hook down to a single attribute test.
        self.absence = system.absence
        #: A nested protocol operation is running (an absence must not
        #: realize inside it).
        self._op_active = False

        # --- LRC state -------------------------------------------------
        self.vc: List[int] = [0] * self.nprocs
        self.intervals: Dict[Key, IntervalRecord] = {}
        #: Per-writer records ordered by index (for fast _intervals_after).
        self._by_writer: List[List[IntervalRecord]] = [
            [] for _ in range(self.nprocs)]
        self.page_notices: Dict[int, List[Key]] = {}
        #: Grows only, between history resets (``_discard_history``):
        #: the notice index below relies on it.
        self.applied: Set[DiffKey] = set()
        #: Notice index, so a fault does not rescan ``page_notices``:
        #: per page, the notices not yet seen applied (in arrival order)
        #: and the latest interval that overwrote the whole page.
        self._pending: Dict[int, List[Key]] = {}
        self._dominator: Dict[int, IntervalRecord] = {}
        self.diff_store: Dict[DiffKey, Diff] = {}
        self.dirty: Set[int] = set()

        # --- barrier (client side) --------------------------------------
        self.master_seen_vc: List[int] = [0] * self.nprocs

        # --- garbage collection ------------------------------------------
        #: Run a GC round when the master sees this many interval records
        #: (None disables).  TreadMarks garbage-collects at barriers:
        #: every processor validates its pages, then all interval
        #: records, write notices and diffs are discarded.
        self.gc_threshold: Optional[int] = system.gc_threshold
        self.gc_rounds = 0
        #: Ablation switch: create diffs eagerly at interval end instead
        #: of lazily at first demand (TreadMarks' lazy diff creation is
        #: one of its signature optimizations; this quantifies it).
        self.eager_diffing: bool = system.eager_diffing

        # --- compiler-driven machinery ----------------------------------
        self._wsync_queue: List[_WsyncEntry] = []
        #: Outstanding asynchronous Validates, oldest first: (covered
        #: pages, the backend's begin_fetch handle, sections, access).
        self._async_validates: List[tuple] = []
        self._req_seq = 0
        self._push_round = 0

        #: One-sided data-plane lowering (:mod:`repro.tm.onesided`);
        #: ``None`` on the default two-sided plane keeps every hook
        #: down to a single attribute test.  Built before the backend:
        #: ``attach`` may install a guard on the image window.
        self.osl = None
        if system.data_plane == "onesided":
            from repro.tm.onesided import NodeOneSided
            self.osl = NodeOneSided(self)

        #: The data-movement policy (mw-lrc / hlrc).
        self.coherence = system.backend_cls(self)

        #: The lock protocol and the barrier master, with their state.
        self.roles = NodeRoles(self)
        self.coherence.attach()

    # ==================================================================
    # Small helpers.
    # ==================================================================

    def array(self, name: str):
        """Application-facing handle for shared array ``name``."""
        from repro.tm.sharedarray import SharedArray
        return SharedArray(self, name)

    def _charge(self, cost: float) -> None:
        if self.offline:
            return
        if self._atomic_depth > 0:
            # Inside a protocol-critical section: charging would yield to
            # the engine and let interrupt handlers observe half-updated
            # state (e.g. a bumped vector clock without its interval
            # record).  Real TreadMarks masks signals here; we defer the
            # cost until the section completes.
            self._deferred_cost += cost
            return
        self.ep.charge(cost)

    def _atomic(self) -> "_Atomic":
        """Mask 'interrupts': defer all cost charging until exit."""
        return self._mask

    def _charge_protect(self, page: int) -> None:
        if self.offline:
            return
        self.stats.protect_ops += 1
        cost = self.cfg.protect_cost(page)
        self.stats.t_protect += cost
        if self.tel is not None:
            self.tel.cpu(self.pid, "cpu.protect", cost)
        self._charge(cost)

    def _charge_protect_run(self, pages) -> None:
        """Charge mprotect calls over contiguous runs of ``pages``.

        Real TreadMarks protects a Validate section or an interval's
        dirty list with one mprotect per contiguous address range, not
        one per page; the per-call cost follows the AIX linear model.
        """
        if self.offline:
            return
        pages = sorted(pages)
        i = 0
        while i < len(pages):
            j = i
            while j + 1 < len(pages) and pages[j + 1] == pages[j] + 1:
                j += 1
            self.stats.protect_ops += 1
            cost = (self.cfg.protect_cost(pages[i])
                    + self.cfg.prot_per_page * (j - i))
            self.stats.t_protect += cost
            if self.tel is not None:
                self.tel.cpu(self.pid, "cpu.protect", cost)
            self._charge(cost)
            i = j + 1

    def _vc_tuple(self) -> Tuple[int, ...]:
        return tuple(self.vc)

    def _merge_vc(self, other: Sequence[int]) -> None:
        self.vc = [max(a, b) for a, b in zip(self.vc, other)]

    def _waited(self, span: str, t0: float) -> None:
        """Account a wait from ``t0`` to now: its ``TmStats`` field
        (``WAIT_FIELDS``) and its telemetry span."""
        now = self.sys.engine.now
        field = WAIT_FIELDS[span]
        setattr(self.stats, field, getattr(self.stats, field) + (now - t0))
        if self.tel is not None:
            self.tel.span(self.pid, span, t0, now)

    def _syncpoint(self) -> None:
        """Every synchronization operation starts here: the banked
        compute is spent (the operation reads the clock), then any
        scheduled crash, drain or join realizes."""
        self.proc.flush()
        if self.absence is not None:
            self.absence.gate(self)

    # ==================================================================
    # Interval management.
    # ==================================================================

    def end_interval(self, crash: bool = False) -> Optional[IntervalRecord]:
        """Close the current interval, creating write notices.

        Called at lock releases, barrier arrivals and pushes — and, with
        ``crash=True``, when a scheduled crash cuts the interval short
        (the flag rides on the ``tm.interval`` event so the sanitizer's
        overwrite rule knows not to expect complete page writes).  Dirty
        pages are write-protected; twins are kept so that diffs can be
        created lazily on first demand.
        """
        if not self.dirty:
            return None
        with self._atomic():
            index = self.vc[self.pid] + 1
            self.vc[self.pid] = index
            pages = tuple(sorted(self.dirty))
            overwrite = frozenset(
                p for p in pages if self.pages[p].overwrite)
            to_protect = []
            for p in pages:
                meta = self.pages[p]
                if meta.write_enabled:
                    to_protect.append(p)
                    meta.write_enabled = False
                if not meta.overwrite and meta.twin is not None:
                    meta.undiffed = index
                meta.reset_interval_flags()
                self.applied.add((self.pid, index, p))
            self._charge_protect_run(to_protect)
            rec = IntervalRecord(self.pid, index, self._vc_tuple(), pages,
                                 overwrite)
            self._record_interval(rec)
            self.dirty.clear()
            if self.eager_diffing or self.osl is not None \
                    or (self.absence is not None
                        and self.absence.streams(self.pid)):
                # One-sided mode diffs eagerly by necessity: the NIC
                # serves diff windows without running this CPU, so the
                # diff must exist before any notice for it circulates.
                for p in pages:
                    self._flush_undiffed(p)
        if self.tel is not None:
            # ``pages`` lets repro.inspect replay the write-protection of
            # the dirty set when reconstructing per-page state machines.
            self.tel.event(self.pid, "tm.interval", index=rec.index,
                           npages=len(rec.pages), pages=rec.pages,
                           overwrite=tuple(sorted(rec.overwrite_pages)),
                           **({"crash": True} if crash else {}))
        if self.absence is not None:
            self.absence.log_interval(self, rec)
        # Release-time lowering (e.g. hlrc's synchronous diff flush to
        # the page homes).  Outside the atomic section: it may block.
        self.coherence.on_interval_end(rec)
        return rec

    def _record_interval(self, rec: IntervalRecord) -> bool:
        if rec.key in self.intervals:
            return False
        self.intervals[rec.key] = rec
        lst = self._by_writer[rec.writer]
        lst.append(rec)
        if len(lst) > 1 and lst[-2].index > rec.index:
            lst.sort(key=_INDEX)
        key = rec.key
        applied = self.applied
        for p in rec.pages:
            self.page_notices.setdefault(p, []).append(key)
            if (rec.writer, rec.index, p) not in applied:
                self._pending.setdefault(p, []).append(key)
        if rec.overwrite_pages:
            order = rec.order_key()
            for p in rec.overwrite_pages:
                dom = self._dominator.get(p)
                if dom is None or order > dom.order_key():
                    self._dominator[p] = rec
        return True

    def _discard_history(self) -> None:
        """Forget every interval, notice and diff (GC, or a crash)."""
        self.intervals.clear()
        self._by_writer = [[] for _ in range(self.nprocs)]
        self.page_notices.clear()
        self.applied.clear()
        self.diff_store.clear()
        self._pending.clear()
        self._dominator.clear()

    def apply_notices(self, recs: Iterable[IntervalRecord],
                      sender_vc: Optional[Sequence[int]] = None) -> None:
        """Record incoming write notices and invalidate affected pages.

        Runs atomically (costs deferred): a handler must never observe a
        merged vector clock without the interval records that justify it.
        """
        with self._atomic():
            self._apply_notices_inner(recs, sender_vc)

    def _apply_notices_inner(self, recs, sender_vc) -> None:
        for rec in sorted(recs, key=IntervalRecord.order_key):
            if not self._record_interval(rec):
                continue
            invalidate = []
            for p in rec.pages:
                if (rec.writer, rec.index, p) in self.applied:
                    continue    # satisfied earlier (e.g. by a Push)
                meta = self.pages[p]
                if meta.valid or meta.write_enabled:
                    invalidate.append(p)
                    self.stats.invalidations += 1
                    if self.tel is not None:
                        self.tel.event(self.pid, "tm.invalidate", page=p,
                                       writer=rec.writer, interval=rec.index)
                    meta.valid = False
                    meta.write_enabled = False
            self._charge_protect_run(invalidate)
            self._merge_vc(rec.vc)
        if sender_vc is not None:
            self._merge_vc(sender_vc)

    def _intervals_after(self, vc: Sequence[int]) -> List[IntervalRecord]:
        out: List[IntervalRecord] = []
        for w in range(self.nprocs):
            lst = self._by_writer[w]
            if not lst or lst[-1].index <= vc[w]:
                continue
            out.extend(lst[bisect_right(lst, vc[w], key=_INDEX):])
        return out

    # ==================================================================
    # Diff bookkeeping.
    # ==================================================================

    def _needed_notices(self, page: int) -> List[Key]:
        """Unapplied notices for ``page`` after overwrite dominance."""
        pending = self._pending.get(page)
        if not pending:
            return []
        applied = self.applied
        unapplied = [k for k in pending
                     if (k[0], k[1], page) not in applied]
        om_rec = self._dominator.get(page)
        if unapplied and om_rec is not None:
            om = om_rec.key
            kept = []
            for k in unapplied:
                if k != om and self.intervals[k].happens_before(om_rec):
                    # Subsumed: the dominating interval rewrote the page.
                    applied.add((k[0], k[1], page))
                else:
                    kept.append(k)
            unapplied = kept
        pending[:] = unapplied
        return unapplied

    def _flush_undiffed(self, page: int) -> None:
        meta = self.pages[page]
        if meta.undiffed is None:
            return
        interval = meta.undiffed
        prof = self.prof
        if prof is None:
            diff = make_diff(page, self.pid, interval, meta.twin,
                             self.image.page(page))
        else:
            # make_diff is pure byte work (never blocks) — a leaf scope
            # is safe here; _charge below can yield, so it stays outside.
            t0 = perf_counter()
            diff = make_diff(page, self.pid, interval, meta.twin,
                             self.image.page(page))
            prof.leaf("tm.diff", perf_counter() - t0)
        # Claim the flush and publish the diff BEFORE charging the
        # creation cost: _charge can yield to the engine, and a diff_req
        # interrupt for this same (page, interval) would otherwise
        # re-enter here and flush a second time (double-counting
        # diffs_created and double-charging the CPU).
        meta.undiffed = None
        meta.twin = None
        self.diff_store[(self.pid, interval, page)] = diff
        if self.osl is not None:
            self.osl.publish_diff(interval, page, diff)
        cost = self.cfg.diff_create_cost(self.layout.page_size)
        self.stats.t_diff += cost
        self.stats.diffs_created += 1
        if self.tel is not None:
            self.tel.event(self.pid, "tm.diff_create", page=page,
                           interval=interval)
            self.tel.cpu(self.pid, "cpu.diff", cost)
        self._charge(cost)

    def _get_or_make_diff(self, page: int, interval: int) -> Diff:
        """Server side: produce my diff for (page, interval)."""
        key = (self.pid, interval, page)
        diff = self.diff_store.get(key)
        if diff is not None:
            return diff
        meta = self.pages[page]
        if meta.undiffed == interval:
            self._flush_undiffed(page)
            return self.diff_store[key]
        rec = self.intervals.get((self.pid, interval))
        if rec is not None and page in rec.overwrite_pages:
            # WRITE_ALL interval: no twin was made; ship the whole page.
            self._charge(self.cfg.twin_cost)
            self.stats.full_pages_served += 1
            if self.tel is not None:
                self.tel.event(self.pid, "tm.full_page", page=page,
                               interval=interval)
            return full_page_diff(page, self.pid, interval,
                                  self.image.page(page))
        raise ProtocolError(
            f"P{self.pid} asked for unavailable diff page={page} "
            f"interval={interval}")

    def _store_diffs(self, diffs: Iterable[Diff]) -> None:
        for d in diffs:
            self.diff_store.setdefault((d.writer, d.interval, d.page), d)

    def _apply_page(self, page: int, keys: List[Key]) -> None:
        recs = sorted((self.intervals[k] for k in keys),
                      key=IntervalRecord.order_key)
        page_bytes = self.image.page(page)
        meta = self.pages[page]
        for rec in recs:
            dkey = (rec.writer, rec.index, page)
            if dkey in self.applied:
                continue
            diff = self.diff_store.get(dkey)
            if diff is None:
                raise ProtocolError(
                    f"P{self.pid} missing diff {dkey} during apply")
            prof = self.prof
            if prof is None:
                written = apply_diff(diff, page_bytes)
                if meta.twin is not None:
                    apply_diff(diff, meta.twin)
            else:
                t0 = perf_counter()
                written = apply_diff(diff, page_bytes)
                if meta.twin is not None:
                    apply_diff(diff, meta.twin)
                prof.leaf("tm.diff", perf_counter() - t0)
            cost = self.cfg.diff_apply_cost(written)
            self.stats.t_diff += cost
            self._charge(cost)
            self.stats.diffs_applied += 1
            self.stats.diff_bytes_applied += written
            if self.tel is not None:
                self.tel.event(self.pid, "tm.diff_apply", page=page,
                               writer=rec.writer, interval=rec.index,
                               bytes=written)
                self.tel.cpu(self.pid, "cpu.diff", cost)
            self.applied.add(dkey)
        meta.valid = True
        if self.tel is not None:
            # The single point where a page becomes readable from diffs
            # (fetch, validate, w_sync completion, GC validation) — even
            # when every needed diff was already applied and the loop
            # above recorded nothing.
            self.tel.event(self.pid, "tm.page_valid", page=page)

    # ==================================================================
    # Page faults (the base TreadMarks access-detection path).
    # ==================================================================

    def passes(self, pages: Iterable[int], read: bool,
               write: bool) -> bool:
        """Whether ``ensure_read``/``ensure_write`` of ``pages`` would
        return without a fault; changes nothing."""
        meta = self.pages
        return (not read or all(meta[p].valid for p in pages)) and \
            (not write or all(meta[p].write_enabled for p in pages))

    def ensure_read(self, pages: Iterable[int]) -> None:
        """Make every page readable, faulting (and fetching) as needed."""
        for p in pages:
            if self.pages[p].valid:
                continue
            self.proc.flush()
            self.stats.read_faults += 1
            if self.tel is not None:
                self.tel.event(self.pid, "tm.read_fault", page=p)
            self._charge(self.cfg.protect_cost(p))
            if not self._finish_validate_covering(p):
                self.coherence.fetch_pages([p])

    def ensure_write(self, pages: Iterable[int]) -> None:
        """Make every page writable, faulting/twinning as needed."""
        for p in pages:
            meta = self.pages[p]
            if meta.write_enabled:
                continue
            self.proc.flush()
            self.stats.write_faults += 1
            if self.tel is not None:
                self.tel.event(self.pid, "tm.write_fault", page=p)
            self._charge(self.cfg.protect_cost(p))
            if self._finish_validate_covering(p) and meta.write_enabled:
                continue
            if not meta.valid:
                self.coherence.fetch_pages([p])
            self._enable_with_twin(p)

    # ==================================================================
    # Validate / Validate_w_sync (paper Section 3.1.1).
    # ==================================================================

    def validate(self, sections: Sequence[Section], access_type: AccessType,
                 asynchronous: bool = False) -> None:
        """Prefetch and set permissions for ``sections`` (Figure 3)."""
        self.proc.flush()
        self.stats.validates += 1
        pages = sorted({p for s in sections
                        for p in self.layout.pages_of(s)})
        if self.tel is not None:
            from repro.telemetry.events import pack_sections
            self.tel.event(self.pid, "tm.validate", npages=len(pages),
                           access=access_type.value, w_sync=False,
                           asynchronous=asynchronous,
                           sections=pack_sections(sections))
        if access_type.fetches:
            fetch = [p for p in pages if not self.pages[p].valid]
        else:
            fetch = []
        if asynchronous and fetch:
            # Figure 4's Fetch_diffs now, Apply_diffs (and permissions)
            # at the first fault on a covered page.
            self._async_validates.append(
                (set(pages), self.coherence.begin_fetch(fetch),
                 list(sections), access_type))
            return
        if fetch:
            self.coherence.fetch_pages(fetch)
        self._apply_validate_perms(sections, access_type)

    def _finish_validate(self, i: int) -> None:
        """Complete outstanding asynchronous Validate ``i``: finish its
        fetch, then set its permissions."""
        _, handle, sections, access_type = self._async_validates.pop(i)
        self.coherence.finish_fetch(handle)
        self._apply_validate_perms(sections, access_type)

    def _finish_validate_covering(self, page: int) -> bool:
        """Complete the oldest asynchronous Validate covering ``page``."""
        for i, plan in enumerate(self._async_validates):
            if page in plan[0]:
                self._finish_validate(i)
                return True
        return False

    def _drain_validates(self) -> None:
        """Complete every outstanding asynchronous Validate, oldest
        first.  Called on entry to every synchronization operation
        (lock acquire, barrier, Push, GC, departure): a fetch begun
        before the operation reflects the write notices known then;
        completed after it, it would install stale data over newer
        bytes (a Push's, say) and mark the pages valid."""
        while self._async_validates:
            self._finish_validate(0)

    def validate_w_sync(self, sections: Sequence[Section],
                        access_type: AccessType,
                        asynchronous: bool = False) -> None:
        """Defer the fetch: piggy-back it on the next synchronization."""
        self.proc.flush()
        self.stats.validates += 1
        if self.tel is not None:
            from repro.telemetry.events import pack_sections
            self.tel.event(self.pid, "tm.validate",
                           nsections=len(sections),
                           access=access_type.value, w_sync=True,
                           asynchronous=asynchronous,
                           sections=pack_sections(sections))
        self._wsync_queue.append(
            _WsyncEntry(list(sections), access_type))

    def _page_marks(self, page: int) -> Tuple[int, ...]:
        """Per-writer watermark of diffs applied to ``page``."""
        marks = [0] * self.nprocs
        for (w, i) in self.page_notices.get(page, []):
            if (w, i, page) in self.applied and i > marks[w]:
                marks[w] = i
        return tuple(marks)

    def _take_wsync_request(self):
        """Consume queued w_sync entries into one fetch request."""
        if not self._wsync_queue:
            return None, []
        entries = self._wsync_queue
        self._wsync_queue = []
        return self.coherence.take_wsync_request(entries), entries

    def _complete_wsync(self, entries: List[_WsyncEntry],
                        req: Optional[SyncFetchRequest] = None,
                        await_donations: bool = False) -> None:
        """After the sync op: apply locally-available diffs, set perms.

        After a barrier (``await_donations=True``) every writer donates its
        own fresh diffs for the requested pages, so the requester knows
        exactly which diffs to expect and blocks until they arrive.  After
        a lock grant the piggy-backed diffs are already here; anything
        missing is left to fault in, as in the paper: "Only the diffs
        present locally are sent.  Other diffs cause an access miss on the
        acquirer and are faulted in."
        """
        self._op_active = True
        try:
            self.coherence.complete_wsync(entries, req, await_donations)
        finally:
            self._op_active = False

    def _apply_validate_perms(self, sections: Sequence[Section],
                              access_type: AccessType) -> None:
        with self._atomic():
            self._apply_validate_perms_inner(sections, access_type)

    def _apply_validate_perms_inner(self, sections: Sequence[Section],
                                    access_type: AccessType) -> None:
        pages = sorted({p for s in sections
                        for p in self.layout.pages_of(s)})
        if access_type is AccessType.READ:
            protect = [p for p in pages if self.pages[p].write_enabled]
            for p in protect:
                self.pages[p].write_enabled = False
            self._charge_protect_run(protect)
            if protect and self.tel is not None:
                self.tel.event(self.pid, "tm.protect_down",
                               pages=tuple(protect))
            return
        if access_type.overwrites:
            fully: Set[int] = set()
            for s in sections:
                fully |= self.layout.pages_fully_covered(s)
            enable = []
            overwritten = []
            for p in pages:
                meta = self.pages[p]
                if p in fully:
                    if (access_type is AccessType.READ_WRITE_ALL
                            and not meta.valid):
                        # The piggy-backed fetch did not deliver every
                        # diff for this page: it must fault in normally
                        # before being read, so it cannot be marked
                        # overwrite/valid here.
                        continue
                    self._flush_undiffed(p)
                    if not meta.write_enabled:
                        enable.append(p)
                        meta.write_enabled = True
                    meta.twin = None
                    meta.overwrite = True
                    meta.valid = True
                    meta.dirty = True
                    self.dirty.add(p)
                    overwritten.append(p)
                else:
                    was = meta.write_enabled
                    self._enable_with_twin(p, batched=True)
                    if not was:
                        enable.append(p)
            self._charge_protect_run(enable)
            if overwritten and self.tel is not None:
                self.tel.event(self.pid, "tm.overwrite",
                               pages=tuple(overwritten))
            return
        # WRITE / READ_WRITE: keep consistency armed but pre-pay it.
        enable = [p for p in pages if not self.pages[p].write_enabled]
        for p in enable:
            self._enable_with_twin(p, batched=True)
        self._charge_protect_run(enable)

    def _enable_with_twin(self, page: int, batched: bool = False) -> None:
        meta = self.pages[page]
        if meta.write_enabled:
            return
        if not (meta.dirty and (meta.twin is not None or meta.overwrite)):
            self._flush_undiffed(page)
            if self.coherence.wants_twin(page):
                meta.twin = self.image.page(page).copy()
                self.stats.t_twin += self.cfg.twin_cost
                self._charge(self.cfg.twin_cost)
                self.stats.twins_created += 1
                if self.tel is not None:
                    self.tel.event(self.pid, "tm.twin", page=page)
                    self.tel.cpu(self.pid, "cpu.twin",
                                 self.cfg.twin_cost)
        if not batched:
            self._charge_protect(page)
        meta.write_enabled = True
        meta.dirty = True
        self.dirty.add(page)
        if self.tel is not None:
            self.tel.event(self.pid, "tm.write_enable", page=page)

    # ==================================================================
    # Locks and barriers: the consistency half of each operation (the
    # lock protocol and the barrier master are repro.tm.roles).
    # ==================================================================

    def lock_acquire(self, lid: int) -> None:
        self._syncpoint()
        self.stats.lock_acquires += 1
        if self.tel is not None:
            self.tel.event(self.pid, "tm.lock_acquire", lid=lid)
        self._drain_validates()
        sreq, wsync = self._take_wsync_request()
        if self.osl is not None and self.absence is None:
            # CAS-spinlock fast path (no manager handler, no queues).
            # Piggy-backed diff donation has no granter process to run
            # on, so w_sync entries complete from locally-held diffs
            # and the rest fault in — the paper's lock-grant rule.
            self.osl.lock_acquire(lid)
        else:
            self.roles.acquire(lid, sreq)
        self._complete_wsync(wsync)

    def lock_release(self, lid: int) -> None:
        self._syncpoint()
        if lid not in self.roles.held:
            raise ProtocolError(f"P{self.pid} releasing unheld lock {lid}")
        if self.tel is not None:
            self.tel.event(self.pid, "tm.lock_release", lid=lid)
        self.end_interval()
        if self.osl is not None and self.absence is None:
            self.osl.lock_release(lid)
        else:
            self.roles.release(lid)

    def barrier(self) -> None:
        self._syncpoint()
        self.stats.barriers += 1
        if self.tel is not None:
            self.tel.barrier(self.pid)   # advances the barrier epoch
        self._drain_validates()
        sreq, wsync = self._take_wsync_request()
        self.end_interval()
        if self.nprocs == 1:
            self._complete_wsync(wsync)
            return
        roles = self.roles
        if self.pid == roles.current_master():
            roles.barrier_as_master(sreq)
        else:
            recs = self._intervals_after(self.master_seen_vc)
            size = (VC_ENTRY_BYTES * self.nprocs + interval_wire_bytes(recs)
                    + (sreq.wire_bytes() if sreq else 0))
            arrive = (roles.current_master(), "barrier_arrive",
                      (self.pid, self._vc_tuple(), tuple(recs), sreq),
                      size, None)
            if self.absence is None:    # one round, one thread sleep
                got = []
                t0 = self.ep.exchange(
                    (arrive,), (("barrier_depart", None, None),),
                    got.append)
                msg = got[0]
            else:
                self.ep.send(*arrive)
                t0 = self.sys.engine.now
                msg = roles.await_depart_or_seat()
            self._waited("wait.barrier", t0)
            if msg is None:
                # The seat moved to this node while it waited as a
                # client; its own (relayed) arrival is already in the
                # box — complete the episode as the new master.
                roles.barrier_finish()
            else:
                master_vc, recs, sreqs, gc_now = msg.payload
                self.apply_notices(recs, master_vc)
                self.master_seen_vc = list(master_vc)
                self.coherence.donate_for_requests(sreqs)
                if gc_now:
                    self._gc_validate()
                    self.ep.send(roles.current_master(), "gc_done",
                                 size=0)
                    self.ep.recv(kind="gc_discard")
                    self._gc_discard()
        self._complete_wsync(wsync, sreq, await_donations=True)

    # ==================================================================
    # Push (paper Section 3.1.2).
    # ==================================================================

    def push(self, read_sections: Sequence[Sequence[Section]],
             write_sections: Sequence[Sequence[Section]]) -> None:
        """Replace a barrier by point-to-point data exchange.

        ``read_sections[q]`` / ``write_sections[q]`` give, for every
        processor q, the sections q reads after / wrote before the
        eliminated barrier.  Consistency is guaranteed only for the
        exchanged intersections.
        """
        self._syncpoint()
        self.stats.pushes += 1
        if self.tel is not None:
            from repro.telemetry.events import pack_sections
            # Emitted before end_interval() on purpose: the sanitizer
            # checks this interval's write log against the declared
            # write sections before tm.interval retires the log.
            self.tel.event(self.pid, "tm.push",
                           round=self._push_round + 1,
                           reads=pack_sections(read_sections[self.pid]),
                           writes=pack_sections(write_sections[self.pid]))
        self._drain_validates()
        rec = self.end_interval()
        index = rec.index if rec is not None else None
        self._push_round += 1
        round_tag = self._push_round
        mine_w = write_sections[self.pid]
        mine_r = read_sections[self.pid]
        for q in range(self.nprocs):
            if q == self.pid:
                continue
            parts = self._intersect_lists(mine_w, read_sections[q])
            if not parts:
                continue
            payload = []
            size = 16
            for sec in parts:
                data = self.image.section_view(sec).copy()
                payload.append((sec, data))
                size += self.layout.section_nbytes(sec)
            if self.osl is not None:
                self.osl.push_send(q, index, tuple(payload), size,
                                   round_tag)
            else:
                self.ep.send(q, "push_data",
                             payload=(index, tuple(payload)),
                             size=size, tag=round_tag)
        senders = [q for q in range(self.nprocs)
                   if q != self.pid
                   and self._intersect_lists(write_sections[q], mine_r)]
        self._receive_push(senders, round_tag)

    def _receive_push(self, senders: Sequence[int],
                      round_tag: int) -> None:
        if not senders:
            return
        t0 = self.sys.engine.now
        for q in senders:
            if self.osl is not None:
                sender_index, payload = self.osl.take_push(q, round_tag)
            else:
                msg = self.ep.recv(kind="push_data", src=q,
                                   tag=round_tag)
                sender_index, payload = msg.payload
            for sec, data in payload:
                self.image.section_view(sec)[...] = data
                self._sync_twins_with_image(sec)
                # The pushed bytes are the newest value of this section;
                # the compiler guarantees nothing else on these pages is
                # read before the next global synchronization.  Mark the
                # pages valid and subsume every notice we know of -- a
                # later fault must not re-apply older diffs on top.
                sec_pages = tuple(self.layout.pages_of(sec))
                for p in sec_pages:
                    meta = self.pages[p]
                    meta.valid = True
                    for (w, i) in self.page_notices.get(p, []):
                        self.applied.add((w, i, p))
                    if sender_index is not None:
                        self.applied.add((q, sender_index, p))
                if sec_pages and self.tel is not None:
                    self.tel.event(self.pid, "tm.push_recv",
                                   pages=sec_pages, src=q,
                                   round=round_tag)
        if self.tel is not None:
            self.tel.span(self.pid, "wait.push", t0,
                          self.sys.engine.now)

    # ==================================================================
    # Garbage collection (TreadMarks collects at barriers).
    # ==================================================================

    def _gc_validate(self) -> None:
        """GC phase 1: bring every stale page up to date.

        After a barrier every processor knows every interval, so once
        the invalid pages are validated (a realistic burst of diff
        traffic — this is why TreadMarks collects rarely) no diff will
        ever be needed again.
        """
        self.gc_rounds += 1
        if self.tel is not None:
            self.tel.event(self.pid, "tm.gc_validate",
                           round=self.gc_rounds)
        # Outstanding asynchronous Validates must complete first:
        # their fetches reference records that phase 2 will discard.
        self._drain_validates()
        stale = [p for p in range(self.layout.npages)
                 if not self.pages[p].valid and self._needed_notices(p)]
        if stale:
            self.coherence.fetch_pages(stale)

    def _gc_discard(self) -> None:
        """GC phase 2: drop all protocol history (after the rendezvous:
        every processor has validated, nothing can be requested).

        Twins of still-undiffed intervals survive: a later local write
        fault flushes them into (now unrequestable, but harmless) diffs.
        """
        if self.tel is not None:
            self.tel.event(self.pid, "tm.gc_discard",
                           nintervals=len(self.intervals),
                           ndiffs=len(self.diff_store))
        self._discard_history()
        for meta in self.pages:
            meta.valid = True
        if self.osl is not None:    # the diff windows go with the store
            self.osl.plane.deregister_where(
                self.pid, lambda k: k[0] == "diff")
        if self.absence is not None:
            self.absence.discard_custody(self.pid)

    @staticmethod
    def _intersect_lists(writes: Sequence[Section],
                         reads: Sequence[Section]) -> List[Section]:
        out: List[Section] = []
        for w in writes:
            for r in reads:
                inter = w.intersect(r)
                if inter is not None and not inter.empty:
                    out.append(inter)
        return out

    def _sync_twins_with_image(self, section: Section) -> None:
        """Copy freshly-received bytes into any live twins they overlap."""
        ps = self.layout.page_size
        for start, stop in self.layout.byte_ranges(section):
            for p in range(start // ps, (stop - 1) // ps + 1):
                twin = self.pages[p].twin
                if twin is None:
                    continue
                lo = max(start, p * ps)
                hi = min(stop, (p + 1) * ps)
                twin[lo - p * ps:hi - p * ps] = self.image.buf[lo:hi]
