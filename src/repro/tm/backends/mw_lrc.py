"""Multiple-writer lazy release consistency (the paper's protocol).

The reference backend: the TreadMarks protocol exactly as the paper
measured it.  Diffs are created lazily at first demand, fetched
writer-by-writer with aggregated ``diff_req``/``diff_resp`` messages,
and donated (``diff_donate``) when a ``Validate_w_sync`` merged its
fetch into a synchronization operation.  Every write fault twins.

This module is a verbatim extraction of the data-movement half of the
pre-refactor ``TmNode``; its message formats, cost charges and event
emissions are byte-identical to the original engine (the protocol
baselines and Table 2 benchmarks pin that down).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.net.message import Message
from repro.net import onesided as rdma
from repro.tm.coherence import (CoherenceBackend, SyncFetchRequest,
                                register)
from repro.tm.diffs import (Diff, apply_diff, diff_payload_bytes,
                            full_page_diff)

Key = Tuple[int, int]          # (writer, interval index)


@register
class MwLrcBackend(CoherenceBackend):
    """TreadMarks' multiple-writer LRC data movement."""

    name = "mw-lrc"

    def attach(self) -> None:
        self.node.ep.on("diff_req", self._h_diff_req)
        self.node.ep.on("diff_donate", self._h_diff_donate)

    # ==================================================================
    # Fetching (the communication side of Validate and of page faults).
    # ==================================================================

    def _collect_missing(self, pages):
        node = self.node
        needed_by_page: Dict[int, List[Key]] = {}
        missing: Dict[int, List[Tuple[int, int]]] = {}
        for p in pages:
            needed = node._needed_notices(p)
            if needed:
                needed_by_page[p] = needed
            for (w, i) in needed:
                if (w, i, p) not in node.diff_store:
                    if w == node.pid:
                        # Post-crash replay can need my own diffs
                        # (re-entry restocks them out of custody);
                        # WRITE_ALL intervals reconstruct from the
                        # image, like the serving path.
                        node.diff_store[(w, i, p)] = \
                            node._get_or_make_diff(p, i)
                        continue
                    missing.setdefault(w, []).append((p, i))
        return needed_by_page, missing

    def _serving_groups(self, missing) -> List[tuple]:
        """Who serves writer w's interval i: ``(serving pid, writer,
        entries)`` groups in request order.  Normally the writer
        itself; while it is drained away, its steward serves the
        intervals it left in custody."""
        absence = self.node.absence
        if absence is None:
            return [(w, w, missing[w]) for w in sorted(missing)]
        return [(q, w, entries) for w in sorted(missing)
                for q, entries in absence.servers_of(
                    self.node.pid, w, missing[w])]

    def _send_diff_requests(self, missing) -> List[tuple]:
        """Start a fetch: post the one-sided reads, or send the diff
        requests; returns what ``_recv_diff_responses`` awaits."""
        groups = self._serving_groups(missing)
        if self.node.osl is not None:
            return self._post_diff_reads(groups)
        sends, replies = self._diff_requests(groups)
        self.node.ep.exchange(sends, ())
        return replies

    def _post_diff_reads(self, groups) -> List[tuple]:
        """One-sided lowering: one batched read per serving node pulls
        every missing diff out of its registered windows (eager diffing
        guarantees they exist); WRITE_ALL intervals, which never encode
        a diff, read the whole page from the writer's image window.
        Custody diffs read from the steward's ``cdiff`` windows."""
        node = self.node
        plane = node.osl.plane
        psz = node.layout.page_size
        expected: List[tuple] = []
        for serve, w, entries in groups:
            batch, plan = [], []
            for (p, i) in entries:
                rec = node.intervals.get((w, i))
                if serve != w:
                    batch.append(rdma.read(("cdiff", w, i, p)))
                    plan.append(("diff", w, i, p))
                elif rec is not None and p in rec.overwrite_pages:
                    batch.append(rdma.read(("image",), p * psz, psz))
                    plan.append(("page", w, i, p))
                else:
                    batch.append(rdma.read(("diff", i, p)))
                    plan.append(("diff", w, i, p))
            bid = plane.post_begin(node.pid, serve, batch)
            expected.append(("rdma", serve, bid, plan))
        return expected

    def _diff_requests(self, groups) -> Tuple[list, list]:
        """The two-sided round: one ``diff_req`` per serving group (a
        custody request to a steward) and the ``diff_resp`` each
        expects, as ``Endpoint.exchange`` sends and replies."""
        node = self.node
        sends, replies = [], []
        for serve, w, entries in groups:
            node._req_seq += 1
            tag = node._req_seq
            if serve != w:
                sends.append((serve, "custody.diff_req",
                              (w, tuple(entries), tag),
                              8 + 12 * len(entries), tag))
            else:
                sends.append((w, "diff_req", (tuple(entries), tag),
                              4 + 12 * len(entries), tag))
            replies.append(("diff_resp", serve, tag))
        return sends, replies

    def _store_reply(self, msg: Message) -> None:
        self.node._store_diffs(msg.payload)

    def _fetch_diffs(self, missing) -> None:
        """Fetch_diffs (Figure 4): two-sided, the requests and their
        replies are one ``exchange``, so the thread sleeps once."""
        node = self.node
        if node.osl is not None:
            self._recv_diff_responses(self._send_diff_requests(missing))
            return
        sends, replies = self._diff_requests(self._serving_groups(missing))
        if sends:
            node._waited("wait.fetch", node.ep.exchange(
                sends, replies, self._store_reply))

    def _recv_diff_responses(self, expected: List[tuple]) -> None:
        if not expected:
            return
        node = self.node
        if node.osl is None:
            node._waited("wait.fetch", node.ep.exchange(
                (), expected, self._store_reply))
            return
        t0 = node.sys.engine.now
        fallback: Dict[int, List[Tuple[int, int]]] = {}
        for _, dst, bid, plan in expected:
            results = node.osl.plane.post_wait(node.pid, dst, bid)
            diffs = []
            for res, (kind, w, i, p) in zip(results, plan):
                if res[0] == "miss":
                    # Guard veto: replay through the handler path.
                    fallback.setdefault(w, []).append((p, i))
                    node.stats.onesided_fallbacks += 1
                    continue
                node.stats.onesided_reads += 1
                if kind == "page":
                    diffs.append(full_page_diff(
                        p, w, i, np.frombuffer(res[1], dtype=np.uint8)))
                else:
                    diffs.append(res[1])
            node._store_diffs(diffs)
        if fallback:
            node.ep.exchange(*self._diff_requests(
                self._serving_groups(fallback)), self._store_reply)
        node._waited("wait.fetch", t0)

    def fetch_pages(self, pages: Sequence[int]) -> None:
        node = self.node
        pages = sorted(set(pages))
        needed_by_page, missing = self._collect_missing(pages)
        self._fetch_diffs(missing)
        with node._atomic():    # batch apply charges into one advance
            for p in pages:
                node._apply_page(p, needed_by_page.get(p, []))
                node.pages[p].valid = True

    def _h_diff_req(self, msg: Message) -> None:
        node = self.node
        entries, tag = msg.payload
        with node._atomic():
            node.charge("cpu.request", node.cfg.request_service)
            diffs = [node._get_or_make_diff(p, i) for (p, i) in entries]
            node.ep.send(msg.src, "diff_resp", payload=tuple(diffs),
                         size=diff_payload_bytes(diffs), tag=tag)

    def _h_diff_donate(self, msg: Message) -> None:
        node = self.node
        node.charge("cpu.request", node.cfg.request_service)
        node._store_diffs(msg.payload)
        node.proc.wake()   # a _complete_wsync may be waiting for these

    # ==================================================================
    # Split-phase fetch (Figure 4's Fetch_diffs / Apply_diffs).
    # ==================================================================

    def begin_fetch(self, pages):
        needed_by_page, missing = self._collect_missing(pages)
        expected = self._send_diff_requests(missing)
        return {"pages": list(pages), "needed": needed_by_page,
                "expected": expected}

    def finish_fetch(self, handle) -> None:
        node = self.node
        self._recv_diff_responses(handle["expected"])
        for p in handle["pages"]:
            node._apply_page(p, handle["needed"].get(p, []))
            node.pages[p].valid = True

    # ==================================================================
    # Validate_w_sync: sync+data merge (paper Sections 3.2.1 / 3.3).
    # ==================================================================

    def take_wsync_request(self, entries):
        node = self.node
        pages = sorted({p for e in entries for s in e.sections
                        for p in node.layout.pages_of(s)
                        if e.access_type.fetches})
        return SyncFetchRequest(
            node.pid, {p: node._page_marks(p) for p in pages})

    def complete_wsync(self, entries, req, await_donations) -> None:
        node = self.node
        if (await_donations and req is not None
                and any(e.access_type.fetches for e in entries)):
            expected = set()
            for p, marks in req.page_marks.items():
                for (w, i) in node.page_notices.get(p, []):
                    if w != node.pid and i > marks[w]:
                        expected.add((w, i, p))
            while not all(k in node.diff_store for k in expected):
                missing = [k for k in expected
                           if k not in node.diff_store]
                node.proc.waiting_on = (
                    f"{len(missing)} donated diffs (first: writer=P"
                    f"{missing[0][0]} interval={missing[0][1]} "
                    f"page={missing[0][2]})")
                node.proc.wait()
            node.proc.waiting_on = None
        for e in entries:
            pages = sorted({p for s in e.sections
                            for p in node.layout.pages_of(s)})
            if e.access_type.fetches:
                for p in pages:
                    if node.pages[p].valid:
                        continue
                    needed = node._needed_notices(p)
                    if all((w, i, p) in node.diff_store
                           for (w, i) in needed):
                        node._apply_page(p, needed)
            node._apply_validate_perms(e.sections, e.access_type)

    def collect_donation(self, sreq, own_only: bool = False) -> List[Diff]:
        """Diffs I hold that ``sreq``'s requester is missing.

        Charges the page-list scan cost even when nothing is found — this
        is the extra overhead that makes sync+data merge a loss for large
        page lists (IS), per Section 3.3.  With ``own_only`` (the barrier
        path) only diffs of this processor's own intervals are donated, so
        the requester can predict exactly which diffs will arrive.
        """
        node = self.node
        node.charge("cpu.merge", node.cfg.sync_merge_scan_per_page
                    * len(sreq.page_marks))
        donated: List[Diff] = []
        for p, marks in sreq.page_marks.items():
            for key in node.page_notices.get(p, []):
                w, i = key
                if own_only and w != node.pid:
                    continue
                if i <= marks[w]:
                    continue    # requester already applied it
                dkey = (w, i, p)
                diff = node.diff_store.get(dkey)
                if diff is None and w == node.pid:
                    diff = node._get_or_make_diff(p, i)
                if diff is not None:
                    donated.append(diff)
        return donated

    def donate_for_requests(self, sreqs) -> None:
        node = self.node
        by_requester: Dict[int, List[Diff]] = {}
        for sreq in sreqs:
            if sreq.requester == node.pid:
                continue
            diffs = self.collect_donation(sreq, own_only=True)
            if diffs:
                by_requester[sreq.requester] = diffs
        if not by_requester:
            return
        # Identical donations to several requesters broadcast cheaply.
        groups: Dict[tuple, List[int]] = {}
        for req, diffs in by_requester.items():
            sig = tuple(sorted((d.writer, d.interval, d.page)
                               for d in diffs))
            groups.setdefault(sig, []).append(req)
        for sig, requesters in groups.items():
            diffs = by_requester[requesters[0]]
            size = diff_payload_bytes(diffs)
            for j, req in enumerate(sorted(requesters)):
                if node.osl is not None:
                    node.osl.donate_send(req, tuple(diffs), size)
                    continue
                cost = (None if j == 0
                        else node.cfg.bcast_extra_per_dest)
                node.ep.send(req, "diff_donate", payload=tuple(diffs),
                             size=size, send_cost=cost)

    # ==================================================================
    # Offline final-state reconciliation.
    # ==================================================================

    def snapshot_arrays(self) -> dict:
        """Take processor 0's image and replay onto it, page by page and
        in happens-before order, every interval it knows of, pulling the
        diffs straight out of their writers.  Programs should end with a
        barrier so that processor 0 knows all intervals.

        Processor 0's own ``applied`` bookkeeping is deliberately not
        consulted: a received ``Push`` subsumes a page's notices though
        it carried only the exchanged section, so bytes of that page
        the pusher wrote but did not send are stale here and would
        never be restored by the still-unapplied, twin-relative diffs.
        """
        from repro.memory.layout import MemoryImage
        node0 = self.node
        system = node0.sys
        image = MemoryImage(system.layout)
        image.buf[:] = node0.image.buf
        for page, keys in node0.page_notices.items():
            recs = sorted((node0.intervals[k] for k in keys),
                          key=lambda r: r.order_key())
            for rec in recs:
                diff = system.nodes[rec.writer]._get_or_make_diff(
                    page, rec.index)
                apply_diff(diff, image.page(page))
        return {name: image.view(name)
                for name in system.layout.arrays}
