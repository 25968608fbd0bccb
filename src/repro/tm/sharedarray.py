"""Application-facing shared arrays with software access detection.

``SharedArray`` is the load/store interface of the DSM.  Every access
passes a page-granularity state check (:meth:`TmNode.ensure_read` /
:meth:`TmNode.ensure_write`), which triggers the protocol actions a
hardware page fault triggers in real TreadMarks.  A section is named by
a numpy-style key, a :class:`Section` or its dims; the data lives in the
processor's byte image, so numpy runs at full speed between faults.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple, Union

import numpy as np

from repro.errors import LayoutError
from repro.memory.section import Section

Key = Union[int, slice, Tuple[Union[int, slice], ...]]


class SectionAccess:
    """Section-wise access to one whole-array view, ``_view``.

    A section is named by a :class:`Section`, or (``*_at``, the lowered
    interpreter) by its dims alone.  ``_check(dims, read, write)`` is a
    subclass's one access path: it returns the section's numpy index,
    after whatever access detection the subclass performs."""

    def passes(self, dims, read: bool, write: bool) -> bool:
        """Whether accessing the section ``dims`` would pass its checks
        without a fault; no side effect.  Always, without detection."""
        return True

    def read_at(self, dims) -> np.ndarray:
        return self._view[self._check(dims, True, False)]

    def write_at(self, dims, values) -> None:
        self._view[self._check(dims, False, True)] = values

    def read(self, section: Section) -> np.ndarray:
        """Readable view of ``section`` (faults invalid pages in)."""
        return self._view[self._check(section.dims, True, False)]

    def write(self, section: Section, values) -> None:
        """Store ``values`` into ``section`` (write-faults as needed)."""
        self._view[self._check(section.dims, False, True)] = values

    def write_view(self, section: Section) -> np.ndarray:
        """Writable view of ``section`` (no read fault; stale bytes may
        remain outside what the caller overwrites)."""
        return self._view[self._check(section.dims, False, True)]

    def rmw(self, section: Section, fn) -> None:
        """Read-modify-write ``section`` via ``fn(view)`` in place."""
        fn(self._view[self._check(section.dims, True, True)])


class SharedArray(SectionAccess):
    """One shared array as seen by one processor."""

    def __init__(self, node, name: str) -> None:
        self.node = node
        self.name = name
        self.info = node.layout.info(name)
        self.shape: Tuple[int, ...] = self.info.shape
        self.dtype: np.dtype = self.info.dtype
        self._plan = self.info.plan     # shared by the run's processors
        self._view = node.image.view(name)

    def _key_dims(self, key: Key) -> tuple:
        """Dims of the section a numpy-style key (ints, slices) names."""
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != len(self.shape):
            raise LayoutError(
                f"{self.name}: key {key!r} has wrong rank for "
                f"shape {self.shape}")
        dims = []
        for k, extent in zip(key, self.shape):
            if isinstance(k, (int, np.integer)):
                i = int(k) + (extent if k < 0 else 0)
                dims.append((i, i, 1))
            elif isinstance(k, slice):
                lo, hi, step = k.indices(extent)
                dims.append((lo, hi - 1, step))  # inclusive upper bound
            else:
                raise LayoutError(f"unsupported key component {k!r}")
        return tuple(dims)

    def _check(self, dims, read: bool, write: bool):
        """The one access path: numpy index of the section ``dims`` of
        this array, once its pages have passed the state check(s).

        The ``rt.read``/``rt.write`` access events (sanitizer feed) are
        emitted *before* the check, so an access appears in program
        order, ahead of any faults it triggers, and after the banked
        compute is spent, so it is stamped where that compute ends."""
        access = self._plan.get(dims)
        if access is None:
            access = self.node.layout.resolve_dims(self.info, dims)
        pages = access[0]
        node = self.node
        tel = node.tel
        if tel is not None and tel.access_events and tel.bus.enabled:
            node.proc.flush()
            if read:
                tel.access(node.pid, "rt.read", self.name, access[3], pages)
            if write:
                tel.access(node.pid, "rt.write", self.name, access[3],
                           pages)
        if node.prof is None:
            if read:
                node.ensure_read(pages)
            if write:
                node.ensure_write(pages)
        else:
            if read:
                self._ensure_profiled(node.ensure_read, pages)
            if write:
                self._ensure_profiled(node.ensure_write, pages)
        return access[1]

    def passes(self, dims, read: bool, write: bool) -> bool:
        """Never while access events are recorded: each access must be
        recorded where a column-by-column run makes it."""
        tel = self.node.tel
        if tel is not None and tel.access_events and tel.bus.enabled:
            return False
        access = self._plan.get(dims)
        if access is None:
            access = self.node.layout.resolve_dims(self.info, dims)
        return self.node.passes(access[0], read, write)

    def _ensure_profiled(self, ensure, pages) -> None:
        """One page-state check under the wall-clock observatory.

        The leaf scope is only valid for the fault-free fast path: a
        fault blocks in the engine and hands the host thread to other
        processes, so faulted samples are discarded (the access still
        counts toward accesses/sec; the servicing time is attributed
        by the dispatch loop to the protocol/network buckets).
        """
        node = self.node
        segv0 = node.stats.segv
        t0 = perf_counter()
        ensure(pages)
        dt = perf_counter() - t0
        node.prof.access_leaf(dt if node.stats.segv == segv0 else None)

    def __getitem__(self, key: Key):
        self._check(self._key_dims(key), True, False)
        out = self._view[key]
        return out.item() if isinstance(out, np.generic) else out

    def __setitem__(self, key: Key, values) -> None:
        self._check(self._key_dims(key), False, True)
        self._view[key] = values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SharedArray {self.name} shape={self.shape} "
                f"P{self.node.pid}>")
