"""Element-granularity shadow state for race detection.

For every element of every shared array the shadow keeps the last write
(owning processor, that processor's clock component at the write, and
the event index of the access) plus, per processor, the last read: one
Fortran-order array per shared array, in that array's shape, as
:class:`repro.memory.layout.MemoryImage` holds the data, addressed with
the numpy index the access plan resolves a section to.  Every access is
a section of whole elements, so no finer grain could tell more apart.

An access conflicts with a recorded one iff they touch the same
element, at least one writes, they come from different processors, and
the recorded access's clock component is **not** contained in the
current access's vector clock — the classic vector-clock race
condition.  Storing a single last-writer per element (instead of a full
clock) is the FastTrack observation: writes to the same element are
themselves ordered in a race-free execution, so the first unordered
pair is caught the moment it occurs.  Reads keep one slot per processor
because reads are allowed to be concurrent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: A conflict sample: (prior_event_index, prior_pid, element index, kind)
#: where kind is "ww", "rw" (prior read, current write) or "wr".
Conflict = Tuple[int, int, Tuple[int, ...], str]


def per_array(layout, dtype, fill=0, nprocs: Optional[int] = None) \
        -> Dict[str, np.ndarray]:
    """One ``fill``-ed array per shared array, in its shape and, like
    the data, in Fortran order; with ``nprocs``, one such slab per
    processor along a trailing axis."""
    procs = () if nprocs is None else (nprocs,)
    return {a.name: np.full(a.shape + procs, fill, dtype, order="F")
            for a in layout.arrays.values()}


def trues(mask: np.ndarray, index=None) -> np.ndarray:
    """Array indices of the True entries of ``mask``, one per row, in
    address (Fortran) order; ``mask`` is over the section with numpy
    ``index`` (default: over the whole array)."""
    rows = np.argwhere(mask.T)[:, ::-1]
    if index is not None:
        rows = rows * [sl.step for sl in index] + [sl.start for sl in index]
    return rows


class ShadowMemory:
    """Last-access metadata per element of the shared arrays."""

    def __init__(self, layout, nprocs: int) -> None:
        self.layout = layout
        self.nprocs = nprocs
        self.w_owner = per_array(layout, np.int32, -1)
        self.w_clock = per_array(layout, np.int64)
        self.w_event = per_array(layout, np.int64, -1)
        self.r_clock = per_array(layout, np.int64, nprocs=nprocs)
        self.r_event = per_array(layout, np.int64, -1, nprocs=nprocs)
        self.bytes_checked = 0

    # ------------------------------------------------------------------

    def access(self, pid: int, is_write: bool, array: str, index: tuple,
               clock: List[int], event_idx: int) -> List[Conflict]:
        """Check one access against the shadow, then record it.

        ``index`` is the numpy index of the accessed section of
        ``array`` (``layout.resolve(section)[1]``); ``clock`` is the
        accessor's vector clock at this point in the stream.  Returns
        one conflict sample per distinct prior access event (not per
        element), at that event's lowest-address conflicting element.
        """
        C = np.asarray(clock, dtype=np.int64)
        conflicts: List[Conflict] = []
        owners = self.w_owner[array][index]
        self.bytes_checked += owners.size * self.layout.arrays[array].itemsize
        # Another's write that my clock does not contain.  (No writer,
        # -1, gathers some component, but wrote at clock 0.)
        bad = (owners != pid) & (C[owners] < self.w_clock[array][index])
        if bad.any():
            self._collect(conflicts, self.w_event[array], self.w_owner[array],
                          bad, index, "ww" if is_write else "wr")
        if is_write:
            # All processors' reads in one comparison (an unread
            # element's clock is 0); my own reads never conflict.
            bad = self.r_clock[array][index] > C
            bad[..., pid] = False
            for q in np.flatnonzero(bad.reshape(-1, self.nprocs).any(0)):
                self._collect(conflicts, self.r_event[array][..., q], q,
                              bad[..., q], index, "rw")
            self.w_owner[array][index] = pid
            self.w_clock[array][index] = clock[pid]
            self.w_event[array][index] = event_idx
            # A write subsumes the read history: future conflicts
            # with those reads are also conflicts with this write.
            self.r_clock[array][index] = 0
        else:
            self.r_clock[array][index + (pid,)] = clock[pid]
            self.r_event[array][index + (pid,)] = event_idx
        return conflicts

    @staticmethod
    def _collect(conflicts, events, owners, bad, index, kind) -> None:
        """One sample (lowest ``bad`` element of the section ``index``)
        per distinct one of ``events``, made by ``owners`` (or one pid)."""
        rows = trues(bad, index)
        at = tuple(rows.T)
        prior = events[at]
        who = np.broadcast_to(owners, events.shape)[at]
        _, first = np.unique(prior, return_index=True)
        conflicts.extend((int(prior[i]), int(who[i]),
                          tuple(map(int, rows[i])), kind) for i in first)
