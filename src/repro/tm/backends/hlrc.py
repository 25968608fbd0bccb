"""Home-based lazy release consistency (hlrc).

Every page has a *home* processor (statically ``page % nprocs``).  The
protocol differs from the paper's multiple-writer LRC in exactly the
way the home-based literature (Zhou/Iftode/Li) describes:

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

from typing import Dict, List

import numpy as np

from repro.errors import ProtocolError
from repro.net.message import Message
from repro.net import onesided as rdma
from repro.tm.coherence import CoherenceBackend, register
from repro.tm.diffs import apply_diff, diff_payload_bytes
from repro.tm.meta import PAGE_ID_BYTES


@register
class HlrcBackend(CoherenceBackend):
    """Home-based LRC: flush diffs to the home, fetch whole pages."""

    name = "hlrc"

    def __init__(self, node) -> None:
        super().__init__(node)
        #: page -> home pid (static).
        self.home_map: List[int] = [
            p % node.nprocs for p in range(node.layout.npages)]

    def attach(self) -> None:
        node = self.node
        node.ep.on("home_flush", self._h_home_flush)
        node.ep.on("page_req", self._h_page_req)
        if node.osl is not None:
            # One-sided page fetches read whole pages straight out of
            # the home's image window; the guard only serves pages this
            # node homes with a clean copy (a miss falls back to
            # ``page_req``).
            psz = node.layout.page_size

            def home_guard(op, node=node, psz=psz):
                if op[0] != "read" or op[2] is None:
                    return False
                off, length = op[2], op[3]
                if off % psz or length != psz:
                    return False
                p = off // psz
                return (self.home_map[p] == node.pid
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
        node._waited("wait.flush", t0)

    def _h_home_flush(self, msg: Message) -> None:
        node = self.node
        diffs, tag = msg.payload
        with node._atomic():
            node.charge("cpu.request", node.cfg.request_service)
            for d in diffs:
                written = apply_diff(d, node.image.page(d.page))
                meta = node.pages[d.page]
                if meta.twin is not None:
                    apply_diff(d, meta.twin)
                node.applied.add((d.writer, d.interval, d.page))
                node.charge("cpu.diff", node.cfg.diff_apply_cost(written))
                node.stats.home_applies += 1
                node.stats.diff_bytes_applied += written
                if node.tel is not None:
                    node.tel.event(node.pid, "tm.home_apply", page=d.page,
                                   writer=d.writer, interval=d.interval,
                                   bytes=written)
            node.ep.send(msg.src, "home_flush_ack", payload=tag,
                         size=4, tag=tag)

    # ==================================================================
    # Fault-time data acquisition: whole pages from the homes, split
    # phase (Figure 4's Fetch_diffs / Apply_diffs): begin_fetch asks
    # each home for its pages, finish_fetch installs the replies.
    # ==================================================================

    def begin_fetch(self, pages) -> Dict[int, object]:
        # Never one of this node's own pages: a home's copy of its pages
        # is never invalidated (module docstring).
        by_home: Dict[int, List[int]] = {}
        for p in sorted(set(pages)):
            by_home.setdefault(self.home_map[p], []).append(p)
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

    def finish_fetch(self, expected: Dict[int, object]) -> None:
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
            node._waited("wait.fetch", t0)
        with node._atomic():    # batch install charges into one advance
            for h in sorted(responses):
                for p, data in responses[h]:
                    self._install_page(p, h, data)

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
        node.charge("cpu.diff", node.cfg.diff_apply_cost(len(arr)))
        self._subsume(page)
        meta.valid = True
        node.stats.page_fetches += 1
        if node.tel is not None:
            node.tel.event(node.pid, "tm.page_fetch", page=page, home=home,
                           bytes=len(arr), revalidate=revalidate)

    def _h_page_req(self, msg: Message) -> None:
        node = self.node
        pages, tag = msg.payload
        with node._atomic():
            node.charge("cpu.request", node.cfg.request_service)
            payload = []
            size = 4
            for p in pages:
                if not node.pages[p].valid:
                    raise ProtocolError(
                        f"P{node.pid} asked to serve home page {p} "
                        f"but its copy is invalid")
                node.charge("cpu.copy", node.cfg.twin_cost)
                node.stats.pages_served += 1
                if node.tel is not None:
                    node.tel.event(node.pid, "tm.page_serve", page=p,
                                   to=msg.src)
                payload.append((p, node.image.page(p).tobytes()))
                size += PAGE_ID_BYTES + node.layout.page_size
            node.ep.send(msg.src, "page_resp", payload=tuple(payload),
                         size=size, tag=tag)

    # ==================================================================
    # Validate_w_sync: no merge partner — complete after the sync op.
    # ==================================================================
    # There is no per-writer diff traffic to merge into the sync
    # message under hlrc; the queued entries are satisfied right after
    # the synchronization completes, with ordinary home fetches (the
    # deferral still saves the pre-sync fetch of soon-stale pages).

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
        return {name: image.view(name)
                for name in system.layout.arrays}
