"""Unit + property tests for the shared layout and memory images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.memory import MemoryImage, Section, SharedLayout


def test_arrays_are_page_aligned():
    layout = SharedLayout(page_size=256)
    a = layout.add_array("a", (10, 10))
    b = layout.add_array("b", (3,), dtype=np.int32)
    assert a.base % 256 == 0
    assert b.base % 256 == 0
    assert b.base >= a.base + a.nbytes
    assert layout.total_bytes % 256 == 0


def test_duplicate_and_bad_shapes_rejected():
    layout = SharedLayout()
    layout.add_array("a", (4,))
    with pytest.raises(LayoutError):
        layout.add_array("a", (4,))
    with pytest.raises(LayoutError):
        layout.add_array("b", (0,))
    with pytest.raises(LayoutError):
        layout.info("nope")


def test_element_offset_fortran_order():
    layout = SharedLayout(page_size=256)
    info = layout.add_array("a", (8, 4))  # column-major
    assert layout.element_offset("a", (0, 0)) == info.base
    assert layout.element_offset("a", (1, 0)) == info.base + 8
    assert layout.element_offset("a", (0, 1)) == info.base + 8 * 8


def test_column_is_contiguous():
    """A full column of a column-major array is one byte range."""
    layout = SharedLayout(page_size=256)
    layout.add_array("a", (32, 8))
    ranges = layout.byte_ranges(Section.of("a", (0, 31), (2, 2)))
    assert len(ranges) == 1
    start, stop = ranges[0]
    assert stop - start == 32 * 8


def test_row_is_scattered():
    layout = SharedLayout(page_size=256)
    layout.add_array("a", (32, 8))
    ranges = layout.byte_ranges(Section.of("a", (3, 3), (0, 7)))
    assert len(ranges) == 8


def test_full_array_is_one_range():
    layout = SharedLayout(page_size=256)
    info = layout.add_array("a", (16, 16))
    ranges = layout.byte_ranges(Section.whole("a", (16, 16)))
    assert ranges == [(info.base, info.base + info.nbytes)]


def test_adjacent_columns_merge():
    layout = SharedLayout(page_size=256)
    layout.add_array("a", (16, 16))
    ranges = layout.byte_ranges(Section.of("a", (0, 15), (2, 5)))
    assert len(ranges) == 1


@st.composite
def small_sections(draw):
    shape = draw(st.tuples(st.integers(2, 12), st.integers(2, 10)))
    dims = []
    for extent in shape:
        lo = draw(st.integers(0, extent - 1))
        hi = draw(st.integers(lo, extent - 1))
        step = draw(st.integers(1, 3))
        dims.append((lo, hi, step))
    return shape, Section("a", tuple(dims))


@given(small_sections())
@settings(max_examples=150)
def test_byte_ranges_cover_exactly_the_section(case):
    shape, section = case
    layout = SharedLayout(page_size=64)
    info = layout.add_array("a", shape)
    covered = set()
    for start, stop in layout.byte_ranges(section):
        covered.update(range(start, stop))
    expected = set()
    for point in section.iter_points():
        off = layout.element_offset("a", point)
        expected.update(range(off, off + info.itemsize))
    assert covered == expected


@given(small_sections())
@settings(max_examples=100)
def test_pages_of_matches_byte_ranges(case):
    shape, section = case
    layout = SharedLayout(page_size=64)
    layout.add_array("a", shape)
    pages = set(layout.pages_of(section))
    expected = set()
    for start, stop in layout.byte_ranges(section):
        expected.update(range(start // 64, (stop - 1) // 64 + 1))
    assert pages == expected
    full = layout.pages_fully_covered(section)
    assert full <= pages


def test_pages_fully_covered():
    layout = SharedLayout(page_size=64)
    layout.add_array("a", (64,))   # 8 pages of 8 float64 each
    # Elements 4..19 cover bytes 32..160: page 1 fully, pages 0 and 2 partly.
    full = layout.pages_fully_covered(Section.of("a", (4, 19)))
    assert full == {1}
    assert layout.pages_of(Section.of("a", (4, 19))) == (0, 1, 2)


def test_memory_image_views_alias_buffer():
    layout = SharedLayout(page_size=256)
    layout.add_array("a", (8, 4))
    img = MemoryImage(layout)
    view = img.view("a")
    view[3, 2] = 7.5
    again = img.view("a")
    assert again[3, 2] == 7.5
    # Fortran order: element (3, 2) is at elem index 3 + 2*8 = 19.
    info = layout.info("a")
    flat = np.ndarray((32,), dtype=np.float64,
                      buffer=img.buf[info.base:info.base + info.nbytes].data)
    assert flat[19] == 7.5


def test_section_view_strided_write():
    layout = SharedLayout(page_size=256)
    layout.add_array("a", (10, 10))
    img = MemoryImage(layout)
    sec = Section.of("a", (0, 9), (1, 7, 2))
    img.section_view(sec)[:] = 3.0
    arr = img.view("a")
    assert arr[:, 1::2][:, :4].sum() == 3.0 * 40
    assert arr.sum() == 3.0 * 40


def test_read_write_bytes_roundtrip():
    layout = SharedLayout(page_size=64)
    layout.add_array("a", (16,))
    img = MemoryImage(layout)
    img.write_bytes(8, b"\x01\x02\x03\x04")
    assert img.read_bytes(8, 12) == b"\x01\x02\x03\x04"


def test_section_nbytes():
    layout = SharedLayout()
    layout.add_array("a", (10, 10))
    assert layout.section_nbytes(Section.of("a", (0, 9), (0, 0))) == 80
