"""Home-based lazy release consistency (hlrc).

Every page has a *home* processor (statically ``page % nprocs``; the
adaptive backend migrates it).  The protocol differs from the paper's
multiple-writer LRC in exactly the way the home-based literature
(Zhou/Iftode/Li) describes:

* When a writer's interval closes, it encodes diffs for its dirty
  pages and **flushes them to each page's home** (``home_flush``),
  waiting for the home's ack before the release proceeds.  The home
  applies the diffs to its own copy, which therefore stays the single
  up-to-date version of the page.
* A faulting processor sends one ``page_req`` per home and receives the
  **whole clean page** (``page_resp``) — no per-writer diff chasing.
* The home itself **never twins its own pages**: it writes them in
  place and marks its intervals applied locally.

Correctness hinges on one ordering argument: the flush is acknowledged
*before* the release completes, so the happens-before chain
``flush-ack -> release -> acquire -> fault -> page_req`` guarantees
that, by the time any processor can hold a write notice for an
interval, the home's copy already contains that interval's writes.
Hence a fetched page subsumes *every* write notice the fetcher holds
for it, and the home's copy of its own pages can never be invalidated
(the notice always finds the flush already applied).

A processor that faults while holding live modifications of the page
(a twin) re-applies them on top of the fetched copy and resets its
twin to the home's version, so its next diff carries exactly its own
writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.memory.section import Section
from repro.net.message import Message
from repro.net import onesided as rdma
from repro.rt.access import AccessType
from repro.tm.coherence import CoherenceBackend, register
from repro.tm.diffs import apply_diff, diff_payload_bytes
from repro.tm.meta import PAGE_ID_BYTES


@dataclass
class HomeAsyncPlan:
    """An asynchronous Validate waiting for its page responses."""

    pages: Set[int]
    expected: Dict[int, int]        # home -> response tag
    local: List[int]                # own-home pages (no message needed)
    perm_sections: List[Section]
    access_type: AccessType


@register
class HlrcBackend(CoherenceBackend):
    """Home-based LRC: flush diffs to the home, fetch whole pages."""

    name = "hlrc"

    def __init__(self, node) -> None:
        super().__init__(node)
        #: page -> home pid.  Static here; the adaptive subclass
        #: rewrites entries at barriers (all nodes in lockstep).
        self.home_map: List[int] = [
            p % node.nprocs for p in range(node.layout.npages)]
        self._plans: List[HomeAsyncPlan] = []
        #: Pages this node just became home for, whose base copy is
        #: still in flight from the old home (adaptive migration):
        #: requests and flushes for them are deferred, not served stale.
        self._pending_home: Set[int] = set()
        self._deferred: List[Tuple[str, Message]] = []

    def attach(self) -> None:
        node = self.node
        node.ep.on("home_flush", self._h_home_flush)
        node.ep.on("page_req", self._h_page_req)
        if node.osl is not None:
            # One-sided page fetches read whole pages straight out of
            # the home's image window; the guard only serves pages this
            # node currently homes with a clean copy.  A mid-migration
            # read misses and falls back to ``page_req``, which knows
            # how to defer (see ``_h_page_req``).
            psz = node.layout.page_size

            def home_guard(op, node=node, psz=psz):
                if op[0] != "read" or op[2] is None:
                    return False
                off, length = op[2], op[3]
                if off % psz or length != psz:
                    return False
                p = off // psz
                return (self.home_map[p] == node.pid
                        and p not in self._pending_home
                        and node.pages[p].valid)

            node.osl.image_window.guard = home_guard

    def home(self, page: int) -> int:
        return self.home_map[page]

    # --- twin policy: the home writes its own pages in place ----------

    def wants_twin(self, page: int) -> bool:
        return self.home_map[page] != self.node.pid

    # ==================================================================
    # Release-time lowering: flush the interval's diffs to the homes.
    # ==================================================================

    def on_interval_end(self, rec) -> None:
        node = self.node
        by_home: Dict[int, list] = {}
        for p in rec.pages:
            h = self.home_map[p]
            if h == node.pid:
                continue        # written in place at the home
            by_home.setdefault(h, []).append(
                node._get_or_make_diff(p, rec.index))
        if not by_home:
            return
        node._req_seq += 1
        tag = node._req_seq
        for h in sorted(by_home):
            diffs = by_home[h]
            for d in diffs:
                node.stats.home_flushes += 1
                if node.tel is not None:
                    node.tel.event(node.pid, "tm.home_flush", page=d.page,
                                   home=h, interval=rec.index)
            node.ep.send(h, "home_flush", payload=(tuple(diffs), tag),
                         size=8 + diff_payload_bytes(diffs), tag=tag)
        # Synchronous: the release must not proceed before every home
        # holds this interval's writes (see the module docstring).
        t0 = node.sys.engine.now
        for h in sorted(by_home):
            node.ep.recv(kind="home_flush_ack", src=h, tag=tag)
        node.stats.t_fetch_wait += node.sys.engine.now - t0
        if node.tel is not None:
            node.tel.span(node.pid, "wait.flush", t0,
                          node.sys.engine.now)

    def _h_home_flush(self, msg: Message) -> None:
        node = self.node
        diffs, tag = msg.payload
        if any(d.page in self._pending_home
               or self.home_map[d.page] != node.pid for d in diffs):
            # Either the base copy is still in flight, or the sender's
            # home map is ahead of ours (it already applied a migration
            # plan we have not processed yet).  Park the flush; it is
            # replayed once the plan lands here.
            self._deferred.append(("home_flush", msg))
            return
        with node._atomic():
            node._charge(node.cfg.request_service)
            for d in diffs:
                written = apply_diff(d, node.image.page(d.page))
                meta = node.pages[d.page]
                if meta.twin is not None:
                    apply_diff(d, meta.twin)
                node.applied.add((d.writer, d.interval, d.page))
                cost = node.cfg.diff_apply_cost(written)
                node.stats.t_diff += cost
                node._charge(cost)
                node.stats.home_applies += 1
                node.stats.diff_bytes_applied += written
                if node.tel is not None:
                    node.tel.event(node.pid, "tm.home_apply", page=d.page,
                                   writer=d.writer, interval=d.interval,
                                   bytes=written)
                    node.tel.cpu(node.pid, "cpu.diff", cost)
            node.ep.send(msg.src, "home_flush_ack", payload=tag,
                         size=4, tag=tag)

    # ==================================================================
    # Fault-time data acquisition: whole pages from the homes.
    # ==================================================================

    def _partition(self, pages):
        """Split fetch pages into own-home and per-home groups."""
        local: List[int] = []
        by_home: Dict[int, List[int]] = {}
        for p in sorted(set(pages)):
            h = self.home_map[p]
            if h == self.node.pid:
                local.append(p)
            else:
                by_home.setdefault(h, []).append(p)
        return local, by_home

    def _send_page_requests(self, by_home) -> Dict[int, object]:
        if self.node.osl is not None:
            return self._post_page_reads(by_home)
        return self._send_page_requests_two(by_home)

    def _post_page_reads(self, by_home) -> Dict[int, object]:
        node = self.node
        plane = node.osl.plane
        psz = node.layout.page_size
        expected: Dict[int, object] = {}
        for h in sorted(by_home):
            pages = tuple(by_home[h])
            bid = plane.post_begin(
                node.pid, h,
                [rdma.read(("image",), p * psz, psz) for p in pages])
            expected[h] = ("rdma", bid, pages)
        return expected

    def _send_page_requests_two(self, by_home) -> Dict[int, int]:
        node = self.node
        expected: Dict[int, int] = {}
        for h in sorted(by_home):
            node._req_seq += 1
            tag = node._req_seq
            node.ep.send(h, "page_req",
                         payload=(tuple(by_home[h]), tag),
                         size=4 + PAGE_ID_BYTES * len(by_home[h]),
                         tag=tag)
            expected[h] = tag
        return expected

    def _recv_and_install(self, expected: Dict[int, object],
                          local: Sequence[int]) -> None:
        node = self.node
        responses = {}
        if expected:
            t0 = node.sys.engine.now
            fb_by_home: Dict[int, List[int]] = {}
            for h in sorted(expected):
                ent = expected[h]
                if isinstance(ent, tuple):
                    _, bid, pages = ent
                    results = node.osl.plane.post_wait(node.pid, h,
                                                       bid)
                    got = []
                    for p, res in zip(pages, results):
                        if res[0] == "miss":
                            fb_by_home.setdefault(h, []).append(p)
                            node.stats.onesided_fallbacks += 1
                        else:
                            node.stats.onesided_reads += 1
                            got.append((p, res[1]))
                    responses[h] = got
                else:
                    msg = node.ep.recv(kind="page_resp", src=h,
                                       tag=ent)
                    responses[h] = msg.payload
            if fb_by_home:
                fb = self._send_page_requests_two(fb_by_home)
                for h in sorted(fb):
                    msg = node.ep.recv(kind="page_resp", src=h,
                                       tag=fb[h])
                    responses[h] = list(responses.get(h, ())) \
                        + list(msg.payload)
            node.stats.t_fetch_wait += node.sys.engine.now - t0
            if node.tel is not None:
                node.tel.span(node.pid, "wait.fetch", t0,
                              node.sys.engine.now)
        with node._atomic():    # batch install charges into one advance
            for p in local:
                # The home's own copy is authoritative by construction;
                # an invalidation can only be a migration transient.
                node._apply_page(p, [])
            for h in sorted(responses):
                for p, data in responses[h]:
                    self._install_page(p, h, data)

    def fetch_pages(self, pages: Sequence[int]) -> None:
        local, by_home = self._partition(pages)
        expected = self._send_page_requests(by_home)
        self._recv_and_install(expected, local)

    def _subsume(self, page: int) -> None:
        """Mark every known notice for ``page`` applied: the home copy
        covers them all (module docstring's ordering argument)."""
        node = self.node
        for (w, i) in node.page_notices.get(page, []):
            node.applied.add((w, i, page))

    def _install_page(self, page: int, home: int, data: bytes) -> None:
        node = self.node
        meta = node.pages[page]
        # A valid-but-stale copy (unapplied write notices, e.g. under
        # conservative validate hints) is legitimately re-fetched whole;
        # tag it so the timeline's valid-page-fetch invariant exempts it.
        revalidate = meta.valid
        arr = np.frombuffer(data, dtype=np.uint8)
        page_bytes = node.image.page(page)
        if meta.overwrite and meta.dirty:
            # WRITE_ALL in progress: every byte is ours; keep them all.
            pass
        elif meta.twin is not None:
            # Live local modifications: overlay them on the home copy
            # and rebase the twin, so the next diff is exactly ours.
            cur = page_bytes.copy()
            changed = cur != meta.twin
            page_bytes[:] = arr
            page_bytes[changed] = cur[changed]
            meta.twin[:] = arr
        else:
            page_bytes[:] = arr
        cost = node.cfg.diff_apply_cost(len(arr))
        node.stats.t_diff += cost
        node._charge(cost)
        self._subsume(page)
        meta.valid = True
        node.stats.page_fetches += 1
        if node.tel is not None:
            node.tel.event(node.pid, "tm.page_fetch", page=page, home=home,
                           bytes=len(arr), revalidate=revalidate)
            node.tel.cpu(node.pid, "cpu.diff", cost)

    def _h_page_req(self, msg: Message) -> None:
        node = self.node
        pages, tag = msg.payload
        if any(p in self._pending_home
               or (self.home_map[p] != node.pid
                   and not node.pages[p].valid)
               for p in pages):
            # The requester's home map is ahead of ours: a migration
            # plan naming us the new home is still in flight (or our
            # base copy is).  A valid copy can serve either way (the
            # old home stays valid and serves the refill); an invalid
            # one must wait for the plan + refill, so park the request.
            self._deferred.append(("page_req", msg))
            return
        with node._atomic():
            node._charge(node.cfg.request_service)
            payload = []
            size = 4
            for p in pages:
                if not node.pages[p].valid:
                    raise ProtocolError(
                        f"P{node.pid} asked to serve home page {p} "
                        f"but its copy is invalid")
                node._charge(node.cfg.twin_cost)    # page copy-out
                node.stats.pages_served += 1
                if node.tel is not None:
                    node.tel.event(node.pid, "tm.page_serve", page=p,
                                   to=msg.src)
                payload.append((p, node.image.page(p).tobytes()))
                size += PAGE_ID_BYTES + node.layout.page_size
            node.ep.send(msg.src, "page_resp", payload=tuple(payload),
                         size=size, tag=tag)

    def _replay_deferred(self) -> None:
        """Serve the requests parked while a home copy was in flight."""
        deferred, self._deferred = self._deferred, []
        for kind, msg in deferred:
            if kind == "page_req":
                self._h_page_req(msg)
            else:
                self._h_home_flush(msg)

    # ==================================================================
    # Split-phase fetch (Figure 4's Fetch_diffs / Apply_diffs).
    # ==================================================================

    def begin_fetch(self, pages):
        local, by_home = self._partition(pages)
        expected = self._send_page_requests(by_home)
        return (expected, local)

    def finish_fetch(self, handle) -> None:
        expected, local = handle
        self._recv_and_install(expected, local)

    # ==================================================================
    # Asynchronous Validate.
    # ==================================================================

    def validate_async(self, fetch, pages, sections, access_type) -> bool:
        local, by_home = self._partition(fetch)
        expected = self._send_page_requests(by_home)
        self._plans.append(HomeAsyncPlan(
            pages=set(pages), expected=expected, local=local,
            perm_sections=list(sections), access_type=access_type))
        return True

    def complete_async_covering(self, page: int) -> bool:
        for i, plan in enumerate(self._plans):
            if page in plan.pages:
                del self._plans[i]
                self._recv_and_install(plan.expected, plan.local)
                self.node._apply_validate_perms(plan.perm_sections,
                                                plan.access_type)
                return True
        return False

    def drain_async(self) -> None:
        while self._plans:
            plan = self._plans[0]
            self.complete_async_covering(next(iter(plan.pages)))

    # ==================================================================
    # Validate_w_sync: no merge partner — complete after the sync op.
    # ==================================================================
    # There is no per-writer diff traffic to merge into the sync
    # message under hlrc; the queued entries are satisfied right after
    # the synchronization completes, with ordinary home fetches (the
    # deferral still saves the pre-sync fetch of soon-stale pages).

    def take_wsync_request(self, entries):
        return None

    def complete_wsync(self, entries, req, await_donations) -> None:
        node = self.node
        for e in entries:
            pages = sorted({p for s in e.sections
                            for p in node.layout.pages_of(s)})
            if e.access_type.fetches:
                fetch = [p for p in pages if not node.pages[p].valid]
                if fetch:
                    self.fetch_pages(fetch)
            node._apply_validate_perms(e.sections, e.access_type)

    # ==================================================================
    # Offline final-state reconciliation: the homes are authoritative.
    # ==================================================================

    def snapshot_arrays(self) -> dict:
        from repro.memory.layout import MemoryImage
        system = self.node.sys
        image = MemoryImage(system.layout)
        for p in range(system.layout.npages):
            image.page(p)[:] = system.nodes[self.home_map[p]].image.page(p)
        return {name: image.view(name).copy()
                for name in system.layout.arrays}
