"""The coherence-backend contract: what a protocol must provide.

:class:`~repro.tm.node.TmNode` owns the machinery every software-DSM
protocol shares — the private page image, the page table, vector clocks,
interval records and write notices, twin/diff encoding, the lock and
barrier clients, Push, and the asynchronous Validate, which it keeps
as split-phase fetches (:meth:`~CoherenceBackend.begin_fetch` at the
Validate, :meth:`~CoherenceBackend.finish_fetch` at the first fault on
a covered page) and drains at every synchronization operation.  What
*varies* between protocols is the data movement policy: where a
faulting processor gets page contents from, what happens to a dirty
page's modifications at a release, whether a given page is ever
twinned, and how the compiler-directed ``Validate_w_sync`` merge is
honored.  :class:`CoherenceBackend` captures exactly that variation;
one instance exists per node.

Two backends are registered (see :mod:`repro.tm.backends`):

``mw-lrc``
    The paper's multiple-writer lazy release consistency: diffs are
    created lazily and fetched writer-by-writer on demand.  This is the
    reference protocol — byte-identical to the pre-refactor engine.

``hlrc``
    Home-based LRC: every page has a home processor; writers flush
    their diffs to the home when an interval closes, faulting
    processors fetch the whole clean page from the home, and the home
    itself never twins its own pages.

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

    def begin_fetch(self, pages: Sequence[int]):
        """Start a split-phase fetch of ``pages`` (Figure 4's
        ``Fetch_diffs``): send the requests, return without waiting;
        the opaque handle goes to :meth:`finish_fetch`."""
        raise NotImplementedError

    def finish_fetch(self, handle) -> None:
        """Complete a split-phase fetch (Figure 4's ``Apply_diffs``):
        wait for the responses and make every page valid."""
        raise NotImplementedError

    def fetch_pages(self, pages: Sequence[int]) -> None:
        """Make every page in ``pages`` valid, fetching as needed."""
        self.finish_fetch(self.begin_fetch(pages))

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

    # --- shutdown -----------------------------------------------------

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
