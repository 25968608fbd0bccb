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
    #: ``SharedLayout.resolve_dims``, shared by every processor of a
    #: run; neither a hit nor a miss builds a ``Section``.
    plan: Dict[tuple, tuple] = field(default_factory=dict, compare=False,
                                     repr=False)

    @cached_property
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

    @cached_property
    def byte_strides(self) -> Tuple[int, ...]:
        return tuple(s * self.itemsize for s in self.elem_strides)


#: Above this many runs numpy lists a section's pages faster than a
#: Python loop over the runs does (measured: they cross at about 32).
_NUMPY_RUNS = 32


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

    def _reject(self, info: ArrayInfo, dims) -> None:
        """Why ``dims`` is no in-bounds section of ``info``'s array,
        raised; an empty section (which may overhang) is None."""
        section = Section(info.name, dims)   # SectionError: bad step
        if section.ndim != len(info.shape):
            raise LayoutError(
                f"section {section} has wrong rank for {info.name!r}")
        if section.empty:
            return None
        raise LayoutError(f"section {section} exceeds bounds "
                          f"of {info.name!r} {info.shape}")

    def _decompose(self, info: ArrayInfo, dims):
        """``(start, nbytes, walks, index, shape)`` of the section
        ``dims`` of ``info``'s array, or None if it is empty: the first
        contiguous byte run, the length of each, one ``(step bytes,
        count)`` per dimension the runs step through (a later walk's
        step exceeds all an earlier one covers, so run starts ascend
        with the last walk slowest), and the numpy index and shape of
        its view.  Integer arithmetic on the dims alone: this is the
        paper's "sections are translated into a set of contiguous
        address ranges" (Section 3.3), and where rank, step and bounds
        are checked."""
        shape = info.shape
        if len(dims) != len(shape):
            return self._reject(info, dims)
        start = info.base
        run = info.itemsize
        grow = True             # every dimension so far is fully covered
        walks, index, counts = [], [], []
        for (lo, hi, step), extent, stride in zip(dims, shape,
                                                  info.byte_strides):
            if step <= 0 or lo > hi or lo < 0 or hi >= extent:
                return self._reject(info, dims)
            start += lo * stride
            count = (hi - lo) // step + 1
            index.append(slice(lo, hi + 1, step))
            counts.append(count)
            if count == 1:
                grow = grow and extent == 1
            elif grow and step == 1:
                run *= count
                grow = count == extent
            else:
                walks.append((step * stride, count))
                grow = False
        return start, run, walks, tuple(index), tuple(counts)

    def byte_ranges(self, section: Section) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` byte ranges covering ``section``,
        sorted, adjacent ranges merged."""
        runs = self._decompose(self.info(section.array), section.dims)
        if runs is None:
            return []
        base, nbytes, walks = runs[:3]
        merged: List[Tuple[int, int]] = []
        # The last walk is the slowest, so starts only ascend.
        for combo in product(*(range(0, sb * count, sb)
                               for sb, count in reversed(walks))):
            start = base + sum(combo)
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], start + nbytes)
            else:
                merged.append((start, start + nbytes))
        return merged

    def _run_pages(self, start: int, nbytes: int, walks) -> Tuple[int, ...]:
        """Sorted pages the runs of a decomposition touch, each once."""
        ps = self.page_size
        inner = 0
        for sb, count in walks:
            # Steps of at most a page skip no page: the walk touches
            # what one run from its first byte to its last touches.
            if sb > ps:
                break
            nbytes += (count - 1) * sb
            inner += 1
        first, last = start // ps, (start + nbytes - 1) // ps
        if inner == len(walks):
            return tuple(range(first, last + 1))
        if inner == len(walks) - 1 and first == last:
            sb, count = walks[inner]
            if sb % ps == 0:        # every run inside one page, its own
                return tuple(range(first, first + count * (sb // ps),
                                   sb // ps))
        if prod(count for _, count in walks[inner:]) > _NUMPY_RUNS:
            starts = np.array([start])
            for sb, count in walks[inner:]:
                starts = np.add.outer(np.arange(0, sb * count, sb),
                                      starts).ravel()
            first, last = starts // ps, (starts + (nbytes - 1)) // ps
            # Every page from each run's first to its last, each page
            # once; the runs ascend, so they come out sorted.
            fill = np.arange(int((last - first).max()) + 1)
            pages = np.minimum(first[:, None] + fill, last[:, None])
            return tuple(dict.fromkeys(pages.ravel().tolist()))
        starts = [start]
        for sb, count in walks[inner:]:
            starts = [s + off for off in range(0, sb * count, sb)
                      for s in starts]
        pages: List[int] = []
        fresh = 0               # lowest page not yet listed
        for s in starts:
            first, stop = max(s // ps, fresh), (s + nbytes - 1) // ps + 1
            if first < stop:
                pages.extend(range(first, stop))
                fresh = stop
        return tuple(pages)

    def resolve_dims(self, info: ArrayInfo, dims) -> tuple:
        """The access ``(pages, index, shape, dims)`` of the section
        ``dims`` of ``info``'s array, worked out and entered in the
        plan under ``dims`` itself: what a plan miss calls (no
        ``Section`` is built).  The fourth field is ``dims`` as plain
        ints (what an access event carries)."""
        key = dims
        runs = self._decompose(info, dims)
        # A numpy integer among the dims makes the start or a count one.
        if runs is None or type(runs[0] + sum(runs[4])) is not int:
            dims = tuple((int(lo), int(hi), int(st)) for lo, hi, st in dims)
            # An empty section is no run: no page.
            runs = self._decompose(info, dims) or (
                0, 0, (), tuple(slice(lo, hi + 1, st) for lo, hi, st in dims),
                tuple(max(0, (hi - lo) // st + 1) for lo, hi, st in dims))
        start, nbytes, walks, index, shape = runs
        if walks:
            pages = self._run_pages(start, nbytes, walks)
        else:
            ps = self.page_size
            first, last = start // ps, (start + nbytes - 1) // ps
            pages = (first,) if first == last else \
                tuple(range(first, last + 1))
        access = info.plan[key] = (pages, index, shape, dims)
        return access

    def resolve(self, section: Section) -> tuple:
        """``(pages, index, shape, dims)`` of ``section``: the sorted
        pages it touches, the numpy index and shape of its view, and its
        dims as plain ints.  Worked out once per layout, then looked up
        (add_array only appends, so an entry never goes stale)."""
        info = self.info(section.array)
        return (info.plan.get(section.dims)
                or self.resolve_dims(info, section.dims))

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
