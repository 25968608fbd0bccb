"""Oracle tests: the indexed critical-path walker against the scanning one.

``_Walker._covering`` and ``_last_end_before`` answer from sorted
indexes (bisect plus a running maximum of span ends).  The reference
below keeps the bodies they replaced, which rescan a track (or every
track) per query; the segments must be equal float for float, on random
captures shaped to hit the tie-breaks (nested, abutting, equal-start
spans, gaps, several tracks) and on real runs.  A scaling guard keeps a
quadratic walker from coming back unnoticed.

Every walk must also tile ``[0, end]`` exactly, and a capture moved
later in time (by 2**24 or 2**33 us, where the spacing between floats
is far coarser than a nanosecond) must walk to the same category
totals, with only ``other`` longer, by exactly the offset.
"""

from bisect import bisect_left
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import RunSpec, run
from repro.inspect import CriticalPath
from repro.inspect.critpath import WAIT_MSG_KINDS, _Walker
from repro.machine.config import MachineConfig
from repro.telemetry import Telemetry


class ScanningWalker(_Walker):
    """The walker with its two lookups as they were before the indexes."""

    def __init__(self, tel) -> None:
        super().__init__(tel)
        self.scan_tracks = {}
        for s in tel.spans.spans:
            self.scan_tracks.setdefault(s.pid, []).append(s)
        for track in self.scan_tracks.values():
            track.sort(key=lambda s: (s.t0, s.t1))

    def _covering(self, pid, t):
        best = None
        for s in self.scan_tracks.get(pid, ()):
            if s.t0 >= t:
                break
            if s.t1 >= t:
                if best is None or s.t0 > best.t0:
                    best = s
        return best

    def _last_end_before(self, pid, t):
        prev = 0.0
        for track in self.scan_tracks.values():
            for s in track:
                if s.t1 < t and s.t1 > prev:
                    prev = s.t1
        for ts_list, _ in self.inbound.values():
            i = bisect_left(ts_list, t) - 1
            if i >= 0 and ts_list[i] > prev:
                prev = ts_list[i]
        return prev


def assert_tiles(cp):
    """Segments cover ``[0, end_ts]`` exactly: no gap, no overlap, none
    empty."""
    segs = cp.segments
    if cp.end_ts <= 0:
        assert segs == []
        return
    assert segs[0].t0 == 0
    assert all(a.t1 == b.t0 for a, b in zip(segs, segs[1:]))
    assert all(s.t0 < s.t1 for s in segs)
    assert segs[-1].t1 == cp.end_ts


def assert_same_path(tel, end_ts=None, end_pid=None):
    got = CriticalPath.from_telemetry(tel, end_ts, end_pid)
    want_segments, want_end = ScanningWalker(tel).walk(end_ts, end_pid)
    assert got.end_ts == want_end
    assert got.segments == want_segments      # dataclass ==: float for float
    assert_tiles(got)
    return got


#: Where float spacing is 3.7e-9 us and 1.9e-6 us: a walk that steps
#: back by a fixed epsilon stalls at both.
OFFSETS = (0.0, 2.0 ** 24, 2.0 ** 33)


def assert_translated(base, moved, offset):
    """``moved`` is ``base`` walked ``offset`` later: every category
    equal but ``other``, which grows by exactly the offset."""
    want, got = base.totals(), moved.totals()
    assert got["other"] - want["other"] == offset
    del want["other"], got["other"]
    assert got == want


# ----------------------------------------------------------------------
# Random captures.
# ----------------------------------------------------------------------

SPAN_NAMES = ("compute", "cpu.diff", "cpu.twin") + tuple(WAIT_MSG_KINDS)
MSG_KINDS = sorted({k for kinds in WAIT_MSG_KINDS.values() for k in kinds
                    if not k.startswith("rdma.")})
#: A coarse grid makes equal starts, equal ends and abutting spans common.
TICKS = st.integers(0, 40).map(lambda k: k * 2.5)


def build(spans, msgs, offset=0.0) -> Telemetry:
    """A capture of ``(pid, name, t0, t1)`` spans and ``(ts, src, dst,
    kind)`` messages, every time moved ``offset`` later."""
    tel = Telemetry()
    for pid, name, t0, t1 in spans:
        tel.spans.record(pid, name, offset + t0, offset + t1)
    for ts, src, dst, kind in msgs:
        tel.bus.emit(offset + ts, src, "net.msg", 0,
                     {"to": dst, "msg": kind, "bytes": 8})
    return tel


@st.composite
def captures(draw):
    nprocs = draw(st.integers(1, 4))
    pids = st.integers(0, nprocs - 1)
    spans = []
    for _ in range(draw(st.integers(0, 30))):
        t0 = draw(TICKS)                           # zero-length allowed
        spans.append((draw(pids), draw(st.sampled_from(SPAN_NAMES)),
                      t0, t0 + draw(TICKS)))
    msgs = [(draw(TICKS), draw(pids), draw(pids),
             draw(st.sampled_from(MSG_KINDS)))
            for _ in range(draw(st.integers(0, 20)))]
    return spans, msgs, nprocs, draw(st.sampled_from(OFFSETS))


@given(captures(), st.data())
@settings(max_examples=300, deadline=None)
def test_random_captures_walk_identically(capture, data):
    spans, msgs, nprocs, offset = capture
    tel = build(spans, msgs, offset)
    assert_same_path(tel)
    end_ts = data.draw(TICKS) + 1.0
    end_pid = data.draw(st.integers(0, nprocs - 1))
    moved = assert_same_path(tel, end_ts=offset + end_ts, end_pid=end_pid)
    base = CriticalPath.from_telemetry(build(spans, msgs), end_ts, end_pid)
    assert_translated(base, moved, offset)


# ----------------------------------------------------------------------
# Late captures: the walk must not depend on where in time it runs.
# ----------------------------------------------------------------------

#: P1 computes, then waits at a barrier that P0 releases with a
#: ``barrier_depart`` sent in a gap after its compute and diff.
BARRIER_SPANS = [(0, "compute", 0.0, 20.0), (0, "cpu.diff", 20.0, 30.0),
                 (1, "compute", 0.0, 10.0),
                 (1, "wait.barrier", 10.0, 100.0)]
BARRIER_MSGS = [(40.0, 0, 1, "barrier_depart")]


@pytest.mark.parametrize("offset", OFFSETS)
def test_late_barrier_release_resolves(offset):
    tel = build(BARRIER_SPANS, BARRIER_MSGS, offset)
    cp = CriticalPath.from_telemetry(tel)
    assert cp.totals() == {"compute": 20.0, "protocol": 10.0, "wait": 0.0,
                           "comm": 60.0, "other": 10.0 + offset}
    assert [s.detail for s in cp.segments][-2:] == [
        "", "barrier_depart from P0"]
    base = CriticalPath.from_telemetry(build(BARRIER_SPANS, BARRIER_MSGS))
    assert_translated(base, cp, offset)
    assert_same_path(tel)


def test_a_run_past_two_to_the_24_us_resolves():
    """A 1 s wire latency (45 us by default) stretches the tiny run to
    28 s of simulated time; its chain has the 45 us run's hops."""
    spec = RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                   opt="base", page_size=1024, telemetry=True)
    fast = run(spec)
    slow = run(spec, config=MachineConfig(wire_latency=1e6))
    assert slow.time > 2 ** 24
    cps = [CriticalPath.from_telemetry(out.telemetry, end_ts=out.time)
           for out in (fast, slow)]
    for cp in cps:
        assert_tiles(cp)
    assert cps[1].hops() == cps[0].hops() == 19
    assert cps[1].totals()["other"] < 0.01 * cps[1].end_ts


# ----------------------------------------------------------------------
# Real runs: one per protocol shape the walker special-cases.
# ----------------------------------------------------------------------

REAL = [("fft3d", "push", None, None),
        ("shallow", "aggr+cons", None, None),
        ("is", "base", None, None),
        ("jacobi", "push", "hlrc", "onesided"),
        ("gauss", "base", None, None),
        ("mgs", "merge", None, None)]


@pytest.mark.parametrize("app,opt,protocol,plane", REAL,
                         ids=[f"{a}-{o}" for a, o, _, _ in REAL])
def test_real_runs_walk_identically(app, opt, protocol, plane):
    out = run(RunSpec(app=app, mode="dsm", dataset="tiny", nprocs=4,
                      opt=opt, page_size=1024, telemetry=True,
                      protocol=protocol, data_plane=plane))
    cp = assert_same_path(out.telemetry)
    assert sum(cp.totals().values()) == pytest.approx(cp.end_ts)


# ----------------------------------------------------------------------
# Scaling guard.
# ----------------------------------------------------------------------

def gappy_capture(nprocs: int, rounds: int) -> Telemetry:
    """Per round and track: compute, three protocol bursts with gaps
    between them, then a barrier wait released by the neighbour."""
    tel = Telemetry()
    for r in range(rounds):
        t = r * 20.0
        for pid in range(nprocs):
            tel.spans.record(pid, "compute", t, t + 4.0)
            tel.spans.record(pid, "cpu.protect", t + 5.0, t + 6.0)
            tel.spans.record(pid, "cpu.twin", t + 7.0, t + 8.0)
            tel.spans.record(pid, "cpu.diff", t + 9.0, t + 10.0)
            tel.spans.record(pid, "wait.barrier", t + 11.0, t + 20.0)
            tel.bus.emit(t + 12.0, pid, "net.msg", r,
                         {"to": (pid + 1) % nprocs,
                          "msg": "barrier_depart", "bytes": 8})
    return tel


def test_gappy_capture_walks_identically():
    cp = assert_same_path(gappy_capture(4, 50))
    assert cp.totals()["other"] == pytest.approx(50 * 4.0)


def test_walk_scales_past_fifty_thousand_spans():
    """Four gaps a round is what the scanning walker paid for most (every
    span of every track, per gap): 20 s on this capture and growing with
    the square of it; the indexed one takes 0.05 s.  The bound is
    generous."""
    tel = gappy_capture(8, 1250)
    assert len(tel.spans) == 50_000
    t0 = perf_counter()
    cp = CriticalPath.from_telemetry(tel)
    wall = perf_counter() - t0
    assert_tiles(cp)
    assert cp.hops() >= 1250 - 1
    assert wall < 5.0, f"critical-path walk took {wall:.1f}s"
