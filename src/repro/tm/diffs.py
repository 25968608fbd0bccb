"""Twin/diff machinery: columnar page deltas.

A *twin* is a copy of a page taken at the first write after the page was
write-protected.  A *diff* records the byte ranges by which the current
page differs from its twin.  Diffs from concurrent writers of one page
touch disjoint bytes (the program is race-free), so applying them in any
happens-before-consistent order merges all modifications — the
multiple-writer protocol of Carter et al. used by TreadMarks.

A diff is held columnar, not as a list of runs: the changed bytes in one
contiguous ``payload``, located either by a single ``[lo, hi)`` slice
(one run, or none) or by an index of byte offsets in the narrowest
unsigned dtype that can address the page.  Only the run *count* is kept,
because the wire size is all the protocol needs of the runs:
``wire_bytes = 12 + 8 * nruns + payload_bytes``.

A special *full-page* diff (``full=True``) carries the entire page.  It is
produced for intervals whose pages were covered by a ``WRITE_ALL``
``Validate``: no twin was made, so the server ships the whole page.  This
is what makes the optimized Jacobi transfer *more* data than base
TreadMarks (paper Table 2: −2312%) while IS transfers far less (diff
accumulation collapses to one full page).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

#: Wire overhead per diff (page id, interval id, run count).
DIFF_HEADER_BYTES = 12
#: Wire overhead per run (offset, length).
RUN_HEADER_BYTES = 8


@dataclass(eq=False)
class Diff:
    """Changes of one page for one (writer, interval).

    ``payload`` is a private copy (never a view of the live page):
    recovery logs and one-sided diff windows hold diffs long after the
    page has moved on.
    """

    page: int
    writer: int
    interval: int
    #: Where ``payload`` goes in the page: one ``slice`` when the changed
    #: bytes form a single run (or none), else their byte offsets.
    where: Union[slice, np.ndarray]
    payload: np.ndarray
    #: Maximal runs of consecutive changed bytes.
    nruns: int
    full: bool = False
    payload_bytes: int = field(init=False)
    wire_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.payload_bytes = len(self.payload)
        self.wire_bytes = (DIFF_HEADER_BYTES + self.nruns * RUN_HEADER_BYTES
                           + self.payload_bytes)


def diff_payload_bytes(diffs) -> int:
    return sum(d.wire_bytes for d in diffs)


def make_diff(page: int, writer: int, interval: int,
              twin: np.ndarray, current: np.ndarray) -> Diff:
    """Encode the bytes where ``current`` differs from ``twin``."""
    if twin.shape != current.shape:
        raise ValueError("twin/page size mismatch")
    idx = np.flatnonzero(twin != current)
    n = len(idx)
    lo = int(idx[0]) if n else 0
    if n == 0 or int(idx[-1]) - lo + 1 == n:
        run = slice(lo, lo + n)
        return Diff(page, writer, interval, run, current[run].copy(),
                    min(n, 1))
    nruns = 1 + int(np.count_nonzero(np.diff(idx) > 1))
    return Diff(page, writer, interval,
                idx.astype(np.min_scalar_type(len(current) - 1)),
                current[idx], nruns)


def full_page_diff(page: int, writer: int, interval: int,
                   current: np.ndarray) -> Diff:
    """A diff carrying the whole page (``WRITE_ALL`` intervals)."""
    return Diff(page, writer, interval, slice(0, len(current)),
                current.copy(), 1, full=True)


def apply_diff(diff: Diff, page_bytes: np.ndarray) -> int:
    """Apply ``diff`` onto ``page_bytes`` in place; returns bytes written."""
    page_bytes[diff.where] = diff.payload
    return diff.payload_bytes
