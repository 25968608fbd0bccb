"""The coherence-backend contract: what a protocol must provide.

:class:`~repro.tm.node.TmNode` owns the machinery every software-DSM
protocol shares — the private page image, the page table, vector clocks,
interval records and write notices, twin/diff encoding, the lock and
barrier clients, Push.  What *varies* between protocols is the data
movement policy: where a faulting processor gets page contents from,
what happens to a dirty page's modifications at a release, whether a
given page is ever twinned, and how the compiler-directed
``Validate_w_sync`` merge is honored.  :class:`CoherenceBackend`
captures exactly that variation; one instance exists per node.

Three backends are registered (see :mod:`repro.tm.backends`):

``mw-lrc``
    The paper's multiple-writer lazy release consistency: diffs are
    created lazily and fetched writer-by-writer on demand.  This is the
    reference protocol — byte-identical to the pre-refactor engine.

``hlrc``
    Home-based LRC: every page has a home processor; writers flush
    their diffs to the home when an interval closes, faulting
    processors fetch the whole clean page from the home, and the home
    itself never twins its own pages.

``adaptive``
    hlrc plus barrier-time home migration driven by the same per-page
    activity rankings the inspector computes offline: single-writer
    pages flip into owner mode (the writer becomes the home), and pages
    dominated by one remote consumer migrate toward it.

Select a backend with ``TmSystem(..., protocol="hlrc")`` or
``RunSpec(protocol="hlrc")`` / ``--protocol hlrc`` in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import ReproError
from repro.memory.section import Section
from repro.rt.access import AccessType
from repro.tm.meta import PAGE_ID_BYTES, VC_ENTRY_BYTES


@dataclass
class SyncFetchRequest:
    """A Validate_w_sync fetch piggy-backed on a synchronization op.

    ``page_marks`` carries, for every requested page, the per-writer
    watermark of diffs the requester has already applied — the paper's
    "current vector timestamps for the pages in the sections requested".
    Responders donate their diffs above the watermark.
    """

    requester: int
    page_marks: Dict[int, Tuple[int, ...]]

    def wire_bytes(self) -> int:
        nwriters = len(next(iter(self.page_marks.values()), ()))
        return 4 + len(self.page_marks) * (PAGE_ID_BYTES
                                           + VC_ENTRY_BYTES * nwriters)


@dataclass
class _WsyncEntry:
    """One queued ``Validate_w_sync`` call, completed after the next
    synchronization operation."""

    sections: List[Section]
    access_type: AccessType


class CoherenceBackend:
    """Per-node protocol strategy object.

    Subclasses implement the hooks below; ``TmNode`` calls them at the
    protocol's decision points.  Every hook runs in the node's process
    context unless noted otherwise (message handlers registered by
    :meth:`attach` run in interrupt context and must not block).
    """

    #: Registry key (``mw-lrc``, ``hlrc``, ...).
    name: str = "?"

    def __init__(self, node) -> None:
        self.node = node

    def attach(self) -> None:
        """Register this protocol's message handlers on ``node.ep``."""

    # --- fault / validate-time data acquisition -----------------------

    def fetch_pages(self, pages: Sequence[int]) -> None:
        """Make every page in ``pages`` valid, fetching as needed."""
        raise NotImplementedError

    def begin_fetch(self, pages: Sequence[int]):
        """Start a split-phase fetch (Figure 4's ``Fetch_diffs``);
        returns an opaque handle for :meth:`finish_fetch`."""
        return list(pages)

    def finish_fetch(self, handle) -> None:
        """Complete a split-phase fetch (Figure 4's ``Apply_diffs``)."""
        self.fetch_pages(handle)

    def validate_async(self, fetch: List[int], pages: List[int],
                       sections, access_type) -> bool:
        """Begin an asynchronous Validate fetch for ``fetch``.

        Returns True when a plan was queued (the node returns without
        applying permissions; :meth:`complete_async_covering` finishes
        the job at the first fault on one of ``pages``), or False to
        fall back to the synchronous path.
        """
        return False

    def complete_async_covering(self, page: int) -> bool:
        """Finish the queued asynchronous Validate covering ``page``."""
        return False

    def drain_async(self) -> None:
        """Complete every outstanding asynchronous Validate plan.

        Called on entry to every synchronization operation: a plan
        computed before an acquire references the pre-acquire notice
        state, so letting it complete after new write notices arrive
        would mark stale pages valid.
        """

    # --- twin policy --------------------------------------------------

    def wants_twin(self, page: int) -> bool:
        """Should a write fault on ``page`` create a twin?"""
        return True

    # --- release-time lowering ----------------------------------------

    def on_interval_end(self, rec) -> None:
        """An interval just closed (``rec`` is its record).

        Called outside the interval's atomic section, before the
        release proceeds — a home-based protocol flushes the interval's
        modifications to the page homes here, synchronously, so that
        the happens-before chain *flush → release → acquire → fault*
        guarantees a home's copy always covers every write notice a
        faulting processor can hold.
        """

    # --- Validate_w_sync (sync+data merge) ----------------------------

    def take_wsync_request(self, entries):
        """Build the fetch request piggy-backed on the next sync op.

        Returns the request object to ride on the lock/barrier message
        (opaque to the node), or None when this protocol completes the
        queued entries without a piggy-backed fetch.
        """
        return None

    def complete_wsync(self, entries, req, await_donations: bool) -> None:
        """After the sync op: satisfy queued entries, set permissions."""
        raise NotImplementedError

    def collect_donation(self, sreq, own_only: bool = False) -> list:
        """Diffs this node donates toward a peer's piggy-backed fetch."""
        return []

    def donate_for_requests(self, sreqs) -> None:
        """Send donations for the fetch requests a barrier forwarded."""

    # --- barrier piggy-back (adaptive home migration) -----------------

    def barrier_extra(self):
        """Protocol payload to ride on this node's barrier arrival."""
        return None

    def barrier_extra_bytes(self, extra) -> int:
        """Wire size of :meth:`barrier_extra`'s payload."""
        return 0

    def barrier_plan(self, extras: Dict[int, object]):
        """Master only: turn the arrivals' extras into a global plan
        (rides on every barrier departure; None when nothing to do)."""
        return None

    def barrier_plan_bytes(self, plan) -> int:
        """Wire size of :meth:`barrier_plan`'s payload."""
        return 0

    def apply_barrier_plan(self, plan) -> None:
        """Apply the master's plan (every node, inside the barrier)."""

    # --- garbage collection / shutdown --------------------------------

    def on_gc_discard(self) -> None:
        """Barrier-time GC dropped all interval/diff history."""

    def snapshot_arrays(self) -> dict:
        """Offline final-state reconciliation (see TmSystem.snapshot)."""
        raise NotImplementedError


#: name -> backend class.  Import :mod:`repro.tm.backends` to populate.
BACKENDS: Dict[str, Type[CoherenceBackend]] = {}

#: The default protocol (the paper's).
DEFAULT_PROTOCOL = "mw-lrc"


def register(cls: Type[CoherenceBackend]) -> Type[CoherenceBackend]:
    """Class decorator: add a backend to the registry."""
    BACKENDS[cls.name] = cls
    return cls


def protocols() -> List[str]:
    """Registered backend names (registration order)."""
    import repro.tm.backends  # noqa: F401  (populates BACKENDS)
    return list(BACKENDS)


def get_backend(name: Optional[str]) -> Type[CoherenceBackend]:
    """Look up a backend class; unknown names raise ``ReproError``."""
    import repro.tm.backends  # noqa: F401  (populates BACKENDS)
    if name is None:
        name = DEFAULT_PROTOCOL
    try:
        return BACKENDS[name]
    except KeyError:
        raise ReproError(
            f"unknown coherence protocol {name!r}; expected one of "
            f"{sorted(BACKENDS)}") from None
