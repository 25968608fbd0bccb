"""Oracle test: the integer-arithmetic section geometry against the one
it replaced.

``SharedLayout`` decomposes ``(ArrayInfo, dims)`` into a first run, a
run length and ``(step bytes, count)`` walks, and lists the pages in
closed form where it can.  ``OracleLayout`` below keeps what that
replaced, bodies unchanged: ``_runs`` on a ``Section`` object,
``_pages`` through ``np.add.outer``/``np.minimum``/``dict.fromkeys``,
and ``resolve``/``byte_ranges``/``pages_fully_covered`` on top of them.
Random 1-3-D arrays (item sizes 1/4/8/16, page sizes 256/1024/4096) and
random dims — strided, singleton, full, empty, overhanging, wrong rank,
non-positive step, numpy integers — must give equal 4-tuples (pages
sorted, each once; plain ints), equal byte ranges and covered-page
sets, or raise the same exception type with the same message.
"""

from itertools import product
from typing import List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError, SectionError
from repro.memory import SharedLayout
from repro.memory.layout import _align
from repro.memory.section import Section


class OracleLayout(SharedLayout):
    """The parent commit's section geometry."""

    def _runs(self, section: Section):
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
                    break
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
        runs = self._runs(section)
        if runs is None:
            return []
        base, nbytes, offsets = runs
        merged: List[Tuple[int, int]] = []
        for combo in product(*reversed(offsets)):
            start = base + sum(combo)
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], start + nbytes)
            else:
                merged.append((start, start + nbytes))
        return merged

    def _pages(self, section: Section) -> Tuple[int, ...]:
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
        fill = np.arange(int((last - first).max()) + 1)
        pages = np.minimum(first[:, None] + fill, last[:, None])
        return tuple(dict.fromkeys(pages.ravel().tolist()))

    def resolve(self, section: Section) -> tuple:
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

    def pages_fully_covered(self, section: Section) -> Set[int]:
        full: Set[int] = set()
        ps = self.page_size
        for start, stop in self.byte_ranges(section):
            first = _align(start, ps) // ps
            last = stop // ps
            full.update(range(first, last))
        return full

    def first_touch(self, name: str, dims) -> tuple:
        """What the parent's ``SharedArray._check`` did on a miss."""
        return self.resolve(Section(name, dims))


# ----------------------------------------------------------------------
# Cases.
# ----------------------------------------------------------------------

DTYPES = {1: np.uint8, 4: np.float32, 8: np.float64, 16: np.complex128}


@st.composite
def dim_of(draw, extent: int):
    kind = draw(st.sampled_from(
        ["any", "any", "any", "single", "full", "empty", "over", "step0"]))
    if kind == "single":
        i = draw(st.integers(0, extent - 1))
        return (i, i, draw(st.sampled_from([1, 1, 3])))
    if kind == "full":
        return (0, extent - 1, 1)
    lo = draw(st.integers(0, extent - 1))
    hi = draw(st.integers(lo, extent - 1))
    step = draw(st.integers(1, 5))
    if kind == "empty":
        return (hi + 1, draw(st.integers(-3, hi)), step)
    if kind == "over":
        return draw(st.sampled_from(
            [(lo - extent, hi, step), (lo, hi + extent, step), (-1, hi, step),
             (lo, extent, step)]))
    if kind == "step0":
        return (lo, hi, draw(st.sampled_from([0, -1, 1, 1])))
    return (lo, hi, step)


@st.composite
def layout_case(draw):
    page_size = draw(st.sampled_from([256, 1024, 4096]))
    pad = draw(st.integers(0, 40))      # a neighbour, so the base moves
    item = draw(st.sampled_from(sorted(DTYPES)))
    shape = tuple(draw(st.lists(
        st.sampled_from([1, 2, 3, 5, 8, 16, 17, 32, 33, 64]),
        min_size=1, max_size=3)))
    rank = len(shape)
    if draw(st.integers(0, 19)) == 0:   # wrong rank, now and then
        rank = draw(st.sampled_from([r for r in (1, 2, 3, 4) if r != rank]))
    extents = (shape + (4, 4, 4))[:rank]
    dims = tuple(draw(dim_of(n)) for n in extents)
    if draw(st.integers(0, 5)) == 0:    # numpy integers, some or all
        which = draw(st.integers(1, 7))
        dims = tuple(tuple(np.int64(v) if which >> k & 1 else v
                           for k, v in enumerate(dim)) for dim in dims)
    return page_size, pad, item, shape, dims


def build(cls, page_size, pad, item, shape):
    layout = cls(page_size=page_size)
    if pad:
        layout.add_array("pad", (pad,), np.float64)
    layout.add_array("a", shape, DTYPES[item])
    return layout


def outcome(fn):
    """``fn()``'s value, or the exception it raises as (type, message)."""
    try:
        return fn()
    except (LayoutError, SectionError) as exc:
        return type(exc), str(exc)


def check_plain(access) -> None:
    pages, index, shape, dims = access
    assert list(pages) == sorted(set(pages))
    ints = [*pages, *shape, *(v for d in dims for v in d),
            *(v for s in index for v in (s.start, s.stop, s.step))]
    assert all(type(v) is int for v in ints)


@given(layout_case())
@settings(max_examples=1500, deadline=None)
def test_first_touch_matches_the_replaced_geometry(case):
    page_size, pad, item, shape, dims = case
    new = build(SharedLayout, page_size, pad, item, shape)
    old = build(OracleLayout, page_size, pad, item, shape)
    info = new.info("a")
    got = outcome(lambda: new.resolve_dims(info, dims))
    want = outcome(lambda: old.first_touch("a", dims))
    assert got == want
    if isinstance(got[0], type):
        assert not info.plan            # a refused section enters nothing
        return
    check_plain(got)
    assert next(iter(info.plan)) is dims    # the key is the caller's tuple
    assert info.plan[dims] is got
    section = Section("a", dims)
    assert new.resolve(section) is got
    assert new.byte_ranges(section) == old.byte_ranges(section)
    assert new.pages_fully_covered(section) == \
        old.pages_fully_covered(section)


@given(layout_case())
@settings(max_examples=300, deadline=None)
def test_ranges_of_a_cold_layout_match(case):
    """``byte_ranges``/``pages_fully_covered`` without a prior resolve:
    same values, same refusals."""
    page_size, pad, item, shape, dims = case
    new = build(SharedLayout, page_size, pad, item, shape)
    old = build(OracleLayout, page_size, pad, item, shape)
    for name in ("byte_ranges", "pages_fully_covered", "pages_of"):
        got = outcome(lambda: getattr(new, name)(Section("a", dims)))
        want = outcome(lambda: getattr(old, name)(Section("a", dims)))
        assert got == want, name


# ----------------------------------------------------------------------
# The closed-form cases by name, and the numpy path, each against the
# oracle on a shape that takes it.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("page_size,item,shape,dims", [
    (4096, 8, (256, 256), ((1, 254, 1), (9, 9, 1))),        # no walk
    (4096, 8, (256, 256), ((9, 9, 1), (1, 254, 1))),        # step <= page
    (1024, 8, (256, 256), ((9, 9, 1), (1, 254, 1))),        # page multiples
    (4096, 16, (32, 32, 32), ((3, 3, 1), (5, 5, 1), (0, 31, 1))),
    (4096, 16, (32, 32, 32), ((0, 3, 1), (0, 31, 1), (0, 3, 1))),  # fill
    (4096, 16, (32, 32, 32), ((3, 3, 1), (0, 31, 2), (0, 31, 1))),  # numpy
    (256, 8, (33, 17, 5), ((1, 31, 3), (0, 16, 2), (0, 4, 1))),     # numpy
    (256, 1, (64, 64), ((0, 63, 5), (0, 63, 1))),
])
def test_named_shapes(page_size, item, shape, dims):
    new = build(SharedLayout, page_size, 0, item, shape)
    old = build(OracleLayout, page_size, 0, item, shape)
    got = new.resolve_dims(new.info("a"), dims)
    assert got == old.first_touch("a", dims)
    check_plain(got)
    section = Section("a", dims)
    assert new.byte_ranges(section) == old.byte_ranges(section)
