"""Unit tests for the application-facing SharedArray access layer."""

import numpy as np
import pytest

from repro.errors import LayoutError, SectionError
from repro.memory import Section, SharedLayout
from repro.tm.system import TmSystem


def run(main, arrays=(("x", (16, 8)),), nprocs=2):
    layout = SharedLayout(page_size=256)
    for name, shape in arrays:
        layout.add_array(name, shape)
    system = TmSystem(nprocs=nprocs, layout=layout)
    return system.run(main)


def test_getitem_setitem_scalar():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[3, 2] = 42.0
        node.barrier()
        return x[3, 2]

    res = run(main)
    assert res.returns == [42.0, 42.0]


def test_slice_read_write():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:16, 1] = np.arange(16.0)
        node.barrier()
        return float(np.sum(x[4:8, 1]))

    res = run(main)
    assert res.returns == [4.0 + 5 + 6 + 7] * 2


def test_negative_index():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[-1, -1] = 9.0
        node.barrier()
        return x[15, 7]

    res = run(main)
    assert res.returns == [9.0, 9.0]


def test_strided_slice():
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:16:4, 0] = 1.0
        node.barrier()
        return float(np.sum(x[0:16, 0]))

    res = run(main)
    assert res.returns == [4.0, 4.0]


def test_wrong_rank_raises():
    def main(node):
        x = node.array("x")
        try:
            x[3]
        except LayoutError:
            return "raised"
        return "no"

    res = run(main)
    assert res.returns == ["raised"] * 2


def test_rmw():
    def main(node):
        x = node.array("x")
        sec = Section.of("x", (0, 3), (0, 0))
        if node.pid == 0:
            x.write(sec, 5.0)
        node.barrier()
        if node.pid == 1:
            node.lock_acquire(0)
            x.rmw(sec, lambda v: np.add(v, 1.0, out=v))
            node.lock_release(0)
        node.barrier()
        return float(x[0, 0])

    res = run(main)
    assert res.returns == [6.0, 6.0]


def test_write_view_does_not_fetch():
    """write_view must not trigger read faults."""
    def main(node):
        x = node.array("x")
        if node.pid == 0:
            x[0:16, 0] = 1.0
        node.barrier()
        if node.pid == 1:
            view = x.write_view(Section.of("x", (0, 15), (0, 0)))
            view[...] = 2.0
        node.barrier()
        return (float(x[0, 0]), node.stats.read_faults)

    res = run(main)
    val, _ = res.returns[0]
    assert val == 2.0
    _, p1_read_faults = res.returns[1]
    assert p1_read_faults == 0


def test_shape_and_dtype():
    def main(node):
        x = node.array("x")
        return (x.shape, str(x.dtype))

    res = run(main)
    assert res.returns[0] == ((16, 8), "float64")


def test_dims_level_access_refuses_bad_sections_by_name():
    """``read_at``/``write_at`` build no ``Section``; the layout's
    dims-level entry refuses what ``Section`` and ``_runs`` used to,
    with their exception types and messages, and enters nothing."""
    def main(node):
        x = node.array("x")
        out = []
        for call, dims in [
                (x.read_at, ((0, 3, 0), (0, 0, 1))),
                (x.write_at, ((0, 3, 1), (0, 7, -2))),
                (x.read_at, ((0, 16, 1), (0, 0, 1))),
                (x.write_at, ((0, 3, 1), (-1, 2, 1))),
                (x.read_at, ((0, 3, 1),)),
                (x.write_at, ((0, 3, 1), (0, 0, 1), (0, 0, 1)))]:
            try:
                call(dims) if call == x.read_at else call(dims, 1.0)
            except (LayoutError, SectionError) as exc:
                out.append((type(exc).__name__, str(exc)))
        return out, len(x.info.plan)

    res = run(main, nprocs=1)
    errors, entries = res.returns[0]
    assert errors == [
        ("SectionError", "non-positive step in x[0:3:0, 0:0]"),
        ("SectionError", "non-positive step in x[0:3, 0:7:-2]"),
        ("LayoutError",
         "section x[0:16, 0:0] exceeds bounds of 'x' (16, 8)"),
        ("LayoutError",
         "section x[0:3, -1:2] exceeds bounds of 'x' (16, 8)"),
        ("LayoutError", "section x[0:3] has wrong rank for 'x'"),
        ("LayoutError", "section x[0:3, 0:0, 0:0] has wrong rank for 'x'"),
    ]
    assert entries == 0


def test_plan_key_is_the_callers_own_tuple():
    """A hit on the tuple that made the entry is found by identity (no
    element-wise comparison): the plan must key on the caller's dims,
    not on a re-packed copy."""
    def main(node):
        x = node.array("x")
        dims = ((0, 3, 1), (2, 2, 1))
        x.write_at(dims, 1.0)
        key, = x.info.plan
        numpy_dims = tuple(tuple(np.int64(v) for v in d) for d in dims)
        x.read_at(numpy_dims)           # equal, so the same entry
        return key is dims, len(x.info.plan), x.info.plan[dims][3] is dims

    res = run(main, nprocs=1)
    assert res.returns[0] == (True, 1, True)


def test_numpy_integer_dims_enter_plain_ints():
    def main(node):
        x = node.array("x")
        dims = ((np.int64(1), np.int64(5), 2), (np.int32(3), 3, 1))
        x.write_at(dims, 2.0)
        key, = x.info.plan
        pages, index, shape, plain = x.info.plan[dims]
        flat = [*pages, *shape, *(v for d in plain for v in d),
                *(v for s in index for v in (s.start, s.stop, s.step))]
        return (key is dims, all(type(v) is int for v in flat), shape,
                float(x[3, 3]))

    res = run(main, nprocs=1)
    assert res.returns[0] == (True, True, (3, 1), 2.0)
