"""Adaptive home-based LRC: migrate page homes from run-time telemetry.

hlrc with a bad home assignment pays for it twice — every release
ships diffs to a processor that never reads them, and every fault
round-trips to it.  This backend closes the loop the inspector only
draws offline: each processor counts its per-page writes and fetches
since the last barrier, piggy-backs the counts on its barrier arrival
(``extra``), and the barrier master turns them into a migration plan
using the *same* ranking policy as the inspector's hot-page reports
(:func:`repro.inspect.timeline.preferred_home`):

* a single-writer page flips into **owner mode** — the writer becomes
  the home, so its releases stop shipping diffs entirely;
* a page dominated by one remote consumer migrates toward it;
* hysteresis keeps cold or balanced pages where they are.

The plan rides on every barrier departure, so all processors rewrite
their home maps in lockstep inside the barrier.  A new home whose copy
is stale pulls the base page from the old home before leaving the
barrier; requests and flushes that race ahead of that install are
deferred (``_pending_home``) and replayed once the copy lands.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.inspect.timeline import preferred_home
from repro.tm.coherence import register
from repro.tm.backends.hlrc import HlrcBackend


@register
class AdaptiveBackend(HlrcBackend):
    """hlrc plus barrier-time home migration."""

    name = "adaptive"

    #: Don't migrate a page for fewer touches than this per epoch.
    MIN_ACTIVITY = 2

    def __init__(self, node) -> None:
        super().__init__(node)
        #: Per-page activity since the last barrier, this node only.
        self._writes: Dict[int, int] = {}
        self._fetches: Dict[int, int] = {}

    # --- activity accounting ------------------------------------------

    def on_interval_end(self, rec) -> None:
        for p in rec.pages:
            self._writes[p] = self._writes.get(p, 0) + 1
        super().on_interval_end(rec)

    def _install_page(self, page: int, home: int, data: bytes) -> None:
        self._fetches[page] = self._fetches.get(page, 0) + 1
        super()._install_page(page, home, data)

    # --- barrier piggy-back -------------------------------------------

    def barrier_extra(self):
        if not self._writes and not self._fetches:
            return None
        extra = tuple(sorted(
            (p, self._writes.get(p, 0), self._fetches.get(p, 0))
            for p in set(self._writes) | set(self._fetches)))
        self._writes.clear()
        self._fetches.clear()
        return extra

    def barrier_extra_bytes(self, extra) -> int:
        return 0 if extra is None else 4 + 12 * len(extra)

    def barrier_plan(self, extras: Dict[int, tuple]):
        """Master: aggregate arrivals' counts into a migration plan."""
        node = self.node
        by_page: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for pid, extra in extras.items():
            if extra is None:
                continue
            for (p, w, f) in extra:
                by_page.setdefault(p, {})[pid] = (w, f)
        plan: List[Tuple[int, int, int]] = []
        for p in sorted(by_page):
            cur = self.home_map[p]
            new = preferred_home(by_page[p], cur,
                                 min_activity=self.MIN_ACTIVITY)
            if new is None:
                continue
            plan.append((p, cur, new))
            node.stats.home_migrations += 1
            if node.tel is not None:
                node.tel.event(node.pid, "tm.home_migrate", page=p,
                               frm=cur, to=new)
        return tuple(plan) if plan else None

    def barrier_plan_bytes(self, plan) -> int:
        return 0 if plan is None else 4 + 12 * len(plan)

    def apply_barrier_plan(self, plan) -> None:
        """Rewrite the home map (all nodes, in lockstep, inside the
        barrier); a new home with a stale copy refills from the old
        home before anyone can ask it for the page."""
        node = self.node
        refill: Dict[int, List[int]] = {}   # old home -> pages
        for (p, frm, to) in plan:
            self.home_map[p] = to
            if to != node.pid:
                continue
            if node.pages[p].valid and not node._needed_notices(p):
                continue    # my copy already matches the old home's
            refill.setdefault(frm, []).append(p)
            self._pending_home.add(p)
        if refill:
            expected = self._send_page_requests(refill)
            self._recv_and_install(expected, ())
            self._pending_home.clear()
        # Requests/flushes from peers that applied this plan before we
        # did may be parked even when no refill was needed; replay them
        # now that our home map agrees with theirs.
        self._replay_deferred()
