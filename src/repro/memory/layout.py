"""Placement of shared arrays in a paged address space, plus byte images.

All shared variables live in a single block (the paper's
``shared_common``).  Arrays are stored in Fortran (column-major) order and
are page-aligned, so that — as in the paper's Jacobi discussion — the
boundary columns of a block-partitioned matrix start on page boundaries
when the column length is a multiple of the page size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.memory.section import Section


@dataclass(frozen=True)
class ArrayInfo:
    """Placement record for one shared array."""

    name: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    base: int           # byte offset of element (0, 0, ...) in the block
    #: The array's part of the access plan: section dims -> (sorted page
    #: indices, numpy index, shape, dims as plain ints).  Filled by
    #: ``SharedLayout.resolve``, shared by every processor of a run; a
    #: hit builds no ``Section``.
    plan: Dict[tuple, tuple] = field(default_factory=dict, compare=False,
                                     repr=False)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @cached_property
    def nbytes(self) -> int:
        return prod(self.shape) * self.itemsize

    @cached_property
    def elem_strides(self) -> Tuple[int, ...]:
        """Element strides for Fortran order: stride[0] == 1."""
        strides = []
        acc = 1
        for extent in self.shape:
            strides.append(acc)
            acc *= extent
        return tuple(strides)


def _align(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) // alignment * alignment


class SharedLayout:
    """Assigns arrays to page-aligned offsets in the shared block."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page_size = page_size
        self.arrays: Dict[str, ArrayInfo] = {}
        self._next = 0

    def add_array(self, name: str, shape: Sequence[int],
                  dtype: object = np.float64) -> ArrayInfo:
        if name in self.arrays:
            raise LayoutError(f"array {name!r} already declared")
        shape = tuple(int(n) for n in shape)
        if not shape or any(n <= 0 for n in shape):
            raise LayoutError(f"bad shape {shape} for {name!r}")
        base = _align(self._next, self.page_size)
        info = ArrayInfo(name, shape, np.dtype(dtype), base)
        self.arrays[name] = info
        self._next = base + info.nbytes
        return info

    @property
    def total_bytes(self) -> int:
        return _align(self._next, self.page_size)

    @property
    def npages(self) -> int:
        return self.total_bytes // self.page_size

    def info(self, name: str) -> ArrayInfo:
        try:
            return self.arrays[name]
        except KeyError:
            raise LayoutError(f"unknown shared array {name!r}") from None

    # ------------------------------------------------------------------
    # Section geometry.
    # ------------------------------------------------------------------

    def element_offset(self, name: str, index: Sequence[int]) -> int:
        info = self.info(name)
        if len(index) != len(info.shape):
            raise LayoutError(f"index {index} has wrong rank for {name!r}")
        off = 0
        for v, extent, stride in zip(index, info.shape, info.elem_strides):
            if v < 0 or v >= extent:
                raise LayoutError(f"index {index} out of bounds for {name!r}")
            off += v * stride
        return info.base + off * info.itemsize

    def _runs(self, section: Section):
        """``(start, nbytes, offsets)`` of ``section``'s contiguous byte
        runs, or None if it is empty: the first run, the length of each,
        and, per dimension the runs step through, the byte offsets it
        adds (a run starts at ``start`` plus one offset from each; a
        later dimension's offsets dominate an earlier one's)."""
        info = self.info(section.array)
        if section.ndim != len(info.shape):
            raise LayoutError(
                f"section {section} has wrong rank for {section.array!r}")
        if section.empty:
            return None
        for (lo, hi, _), extent in zip(section.dims, info.shape):
            if lo < 0 or hi >= extent:
                raise LayoutError(f"section {section} exceeds bounds "
                                  f"of {section.array!r} {info.shape}")
        strides = info.elem_strides
        # Grow a contiguous run over fully-covered leading dimensions.
        run = 1
        run_base = 0
        d = 0
        while d < section.ndim:
            lo, hi, step = section.dims[d]
            if step == 1 and run == strides[d]:
                run_base += lo * strides[d]
                run *= hi - lo + 1
                d += 1
                if lo != 0 or hi != info.shape[d - 1] - 1:
                    break  # partial coverage: cannot extend further
                continue
            break
        offsets = []
        for (lo, hi, step), stride in zip(section.dims[d:], strides[d:]):
            if lo + step > hi:
                run_base += lo * stride
            else:
                offsets.append(range(lo * stride * info.itemsize,
                                     (hi + 1) * stride * info.itemsize,
                                     step * stride * info.itemsize))
        return (info.base + run_base * info.itemsize, run * info.itemsize,
                offsets)

    def byte_ranges(self, section: Section) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` byte ranges covering ``section``.

        This is the "sections are translated into a set of contiguous
        address ranges" step of the paper's Section 3.3.  Ranges are sorted
        and adjacent/overlapping ranges merged.
        """
        runs = self._runs(section)
        if runs is None:
            return []
        base, nbytes, offsets = runs
        merged: List[Tuple[int, int]] = []
        # The last dimension varies slowest, so starts only ascend.
        for combo in product(*reversed(offsets)):
            start = base + sum(combo)
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], start + nbytes)
            else:
                merged.append((start, start + nbytes))
        return merged

    def _pages(self, section: Section) -> Tuple[int, ...]:
        """Sorted pages ``section`` touches, from its runs directly (no
        ranges are materialised; one run is one ``range``)."""
        runs = self._runs(section)
        if runs is None:
            return ()
        start, nbytes, offsets = runs
        ps = self.page_size
        if not offsets:
            return tuple(range(start // ps, (start + nbytes - 1) // ps + 1))
        starts = np.array([start])
        for offs in offsets:
            starts = np.add.outer(np.array(offs), starts).ravel()
        first, last = starts // ps, (starts + (nbytes - 1)) // ps
        # Every page from each run's first to its last, each page once;
        # the runs ascend, so they come out sorted.
        fill = np.arange(int((last - first).max()) + 1)
        pages = np.minimum(first[:, None] + fill, last[:, None])
        return tuple(dict.fromkeys(pages.ravel().tolist()))

    def resolve(self, section: Section) -> tuple:
        """``(pages, index, shape, dims)`` of ``section``: the sorted
        pages it touches, the numpy index and shape of its view, and its
        dims as plain ints (what an access event carries).  Worked out
        once per layout, then looked up (add_array only appends, so an
        entry never goes stale)."""
        plan = self.info(section.array).plan
        access = plan.get(section.dims)
        if access is None:
            dims = section.dims
            if any(type(v) is not int for dim in dims for v in dim):
                dims = tuple((int(lo), int(hi), int(st))
                             for lo, hi, st in dims)
            access = plan[section.dims] = (
                self._pages(section),
                tuple(slice(lo, hi + 1, st) for lo, hi, st in dims),
                tuple(max(0, (hi - lo) // st + 1) for lo, hi, st in dims),
                dims)
        return access

    def pages_of(self, section: Section) -> Tuple[int, ...]:
        """Sorted page indices touched by ``section``."""
        return self.resolve(section)[0]

    def forget_plan(self) -> None:
        """Drop every resolved access (a released system keeps none)."""
        for info in self.arrays.values():
            info.plan.clear()

    def pages_fully_covered(self, section: Section) -> Set[int]:
        """Pages every byte of which lies inside ``section``'s byte ranges."""
        full: Set[int] = set()
        ps = self.page_size
        for start, stop in self.byte_ranges(section):
            first = _align(start, ps) // ps
            last = stop // ps  # exclusive page index
            full.update(range(first, last))
        return full

    def section_nbytes(self, section: Section) -> int:
        return section.npoints() * self.info(section.array).itemsize


class MemoryImage:
    """One processor's private byte image of the shared block."""

    def __init__(self, layout: SharedLayout) -> None:
        self.layout = layout
        self.buf = np.zeros(layout.total_bytes, dtype=np.uint8)
        # Plain slice/view/reshape: np.ndarray(buffer=flat.data) would
        # hold a memoryview export of ``buf`` for as long as it lives.
        self._views: Dict[str, np.ndarray] = {
            a.name: self.buf[a.base:a.base + a.nbytes].view(a.dtype)
                        .reshape(a.shape, order="F")
            for a in layout.arrays.values()}

    def view(self, name: str) -> np.ndarray:
        """Typed Fortran-order view of a whole array (built once)."""
        self.layout.info(name)          # LayoutError for an unknown name
        return self._views[name]

    def section_view(self, section: Section) -> np.ndarray:
        """Numpy (possibly strided) view of ``section``."""
        index = self.layout.resolve(section)[1]
        return self._views[section.array][index]

    def page(self, index: int) -> np.ndarray:
        ps = self.layout.page_size
        return self.buf[index * ps:(index + 1) * ps]

    def read_bytes(self, start: int, stop: int) -> bytes:
        return self.buf[start:stop].tobytes()

    def write_bytes(self, start: int, data: bytes) -> None:
        self.buf[start:start + len(data)] = np.frombuffer(data, dtype=np.uint8)
