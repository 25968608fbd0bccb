"""Unit + property tests for the twin/diff machinery.

The codec is checked through its public surface only (``make_diff``,
``full_page_diff``, ``apply_diff``, ``payload_bytes``, ``wire_bytes``)
against the per-run loop encoder it replaced, kept here as the oracle;
one test pins the two shapes of ``where`` (a slice or a bitmap).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tm.diffs import (DIFF_HEADER_BYTES, RUN_HEADER_BYTES, apply_diff,
                            diff_payload_bytes, full_page_diff, make_diff)

PAGE = 128
#: 100 is not a multiple of 8, so the bitmap's last byte is padded.
PAGE_SIZES = (100, 256, 4096, 65536)
PATTERNS = ("random", "sparse", "strided", "block", "full", "edges", "empty")


def oracle_runs(twin, current):
    """The run-list encoder: maximal ``(offset, bytes)`` runs."""
    idx = np.flatnonzero(twin != current)
    runs = []
    if len(idx):
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [len(idx)]))
        for s, e in zip(starts, stops):
            off, end = int(idx[s]), int(idx[e - 1]) + 1
            runs.append((off, current[off:end].tobytes()))
    return runs


def oracle_apply(runs, page):
    written = 0
    for off, data in runs:
        page[off:off + len(data)] = np.frombuffer(data, dtype=np.uint8)
        written += len(data)
    return written


def pages(size, pattern, seed=1996):
    """(twin, current) for one modification pattern."""
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 255, size, dtype=np.uint8)
    cur = twin.copy()
    words = cur[:size - size % 8].view(np.uint64)
    n = len(words)
    if pattern == "random":
        mask = rng.random(size) < 0.3
        cur[mask] ^= 0xFF
    elif pattern == "sparse":
        words[rng.choice(n, size=max(1, n // 100), replace=False)] ^= \
            np.uint64(0x00FF00FF00FF00FF)     # split runs inside a word
    elif pattern == "strided":
        words[::2] ^= np.uint64(0xFFFFFFFFFFFFFFFF)
    elif pattern == "block":
        words[n // 4:n // 2] ^= np.uint64(0xFFFFFFFFFFFFFFFF)
    elif pattern == "full":
        cur ^= 0xFF
    elif pattern == "edges":
        cur[0] ^= 1
        cur[-1] ^= 1
    else:
        assert pattern == "empty"
    return twin, cur


@pytest.mark.parametrize("size", PAGE_SIZES)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_matches_run_list_oracle(size, pattern):
    twin, cur = pages(size, pattern)
    runs = oracle_runs(twin, cur)
    payload = sum(len(data) for _, data in runs)
    diff = make_diff(3, 0, 1, twin, cur)
    assert diff.payload_bytes == payload
    assert diff.nruns == len(runs)
    assert diff.wire_bytes == (DIFF_HEADER_BYTES
                               + RUN_HEADER_BYTES * len(runs) + payload)
    # Applied onto an unrelated page: same bytes land, same count.
    base = np.random.default_rng(7).integers(0, 255, size, dtype=np.uint8)
    got, want = base.copy(), base.copy()
    assert apply_diff(diff, got) == oracle_apply(runs, want) == payload
    np.testing.assert_array_equal(got, want)
    # Round trip from the twin restores the page.
    target = twin.copy()
    apply_diff(diff, target)
    np.testing.assert_array_equal(target, cur)


@pytest.mark.parametrize("size", PAGE_SIZES)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_where_is_a_slice_or_the_changed_byte_bitmap(size, pattern):
    twin, cur = pages(size, pattern)
    diff = make_diff(3, 0, 1, twin, cur)
    if diff.nruns <= 1:
        assert type(diff.where) is slice
        return
    assert diff.where.dtype == np.uint8
    assert diff.where.shape == (-(-size // 8),)
    np.testing.assert_array_equal(
        np.unpackbits(diff.where, count=size).view(bool), twin != cur)


@st.composite
def twin_and_writes(draw):
    twin = np.array(draw(st.lists(
        st.integers(0, 255), min_size=PAGE, max_size=PAGE)),
        dtype=np.uint8)
    current = twin.copy()
    nwrites = draw(st.integers(0, 5))
    for _ in range(nwrites):
        off = draw(st.integers(0, PAGE - 1))
        length = draw(st.integers(1, PAGE - off))
        val = draw(st.integers(0, 255))
        current[off:off + length] = val
    return twin, current


@given(twin_and_writes())
@settings(max_examples=200)
def test_random_writes_match_oracle(case):
    twin, current = case
    runs = oracle_runs(twin, current)
    diff = make_diff(3, 0, 1, twin, current)
    assert diff.payload_bytes == int((twin != current).sum())
    assert diff.nruns == len(runs)
    assert diff.wire_bytes == 12 + 8 * len(runs) + diff.payload_bytes
    target = twin.copy()
    assert apply_diff(diff, target) == diff.payload_bytes
    np.testing.assert_array_equal(target, current)


@given(twin_and_writes(), twin_and_writes())
@settings(max_examples=100)
def test_concurrent_disjoint_diffs_merge(case_a, case_b):
    """Multiple-writer: diffs from disjoint writes commute."""
    twin, cur_a = case_a
    _, cur_b_raw = case_b
    # Make b's writes disjoint from a's by construction: apply b's
    # changes only where a left the twin untouched.
    mask_a = twin != cur_a
    cur_b = twin.copy()
    cur_b[~mask_a] = cur_b_raw[~mask_a]
    da = make_diff(0, 0, 1, twin, cur_a)
    db = make_diff(0, 1, 1, twin, cur_b)
    t1 = twin.copy()
    apply_diff(da, t1)
    apply_diff(db, t1)
    t2 = twin.copy()
    apply_diff(db, t2)
    apply_diff(da, t2)
    np.testing.assert_array_equal(t1, t2)
    expected = twin.copy()
    expected[mask_a] = cur_a[mask_a]
    expected[~mask_a] = cur_b[~mask_a]
    np.testing.assert_array_equal(t1, expected)


@pytest.mark.parametrize("pattern", ["strided", "block", "full"])
def test_diff_does_not_alias_the_live_page(pattern):
    """Recovery logs and one-sided diff windows hold a diff long after
    the page it was made from has moved on."""
    twin, cur = pages(4096, pattern)
    old = cur.copy()
    diffs = [make_diff(0, 0, 1, twin, cur)]
    if pattern == "full":
        diffs.append(full_page_diff(0, 0, 1, cur))
    cur[:] = 0
    for diff in diffs:
        target = twin.copy()
        apply_diff(diff, target)
        np.testing.assert_array_equal(target, old)


def test_empty_diff():
    twin = np.zeros(PAGE, dtype=np.uint8)
    diff = make_diff(0, 0, 1, twin, twin.copy())
    assert diff.payload_bytes == 0
    assert diff.wire_bytes == 12
    target = np.ones(PAGE, dtype=np.uint8)
    assert apply_diff(diff, target) == 0
    assert target.sum() == PAGE


def test_full_page_diff():
    current = np.arange(PAGE, dtype=np.uint8)
    diff = full_page_diff(7, 2, 5, current)
    assert diff.full
    assert (diff.page, diff.writer, diff.interval) == (7, 2, 5)
    assert diff.payload_bytes == PAGE
    assert diff.wire_bytes == 12 + 8 + PAGE
    target = np.zeros(PAGE, dtype=np.uint8)
    assert apply_diff(diff, target) == PAGE
    np.testing.assert_array_equal(target, current)


def test_wire_bytes_accounting():
    twin = np.zeros(PAGE, dtype=np.uint8)
    current = twin.copy()
    current[10:20] = 1
    current[50:55] = 2
    diff = make_diff(0, 0, 1, twin, current)
    assert diff.payload_bytes == 15
    assert diff.wire_bytes == 12 + 2 * 8 + 15
    assert diff_payload_bytes([diff, diff]) == 2 * diff.wire_bytes


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        make_diff(0, 0, 1, np.zeros(8, np.uint8), np.zeros(16, np.uint8))


def test_diff_is_hashable():
    twin = np.zeros(PAGE, dtype=np.uint8)
    current = twin.copy()
    current[0] = 9
    d = make_diff(0, 0, 1, twin, current)
    assert isinstance(hash(d), int)
    assert len({d, d}) == 1
