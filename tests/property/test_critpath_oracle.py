"""Oracle tests: the indexed critical-path walker against the scanning one.

``_Walker._covering`` and ``_last_end_before`` answer from sorted
indexes (bisect plus a running maximum of span ends).  The reference
below keeps the bodies they replaced, which rescan a track (or every
track) per query; the segments must be equal float for float, on random
captures shaped to hit the tie-breaks (nested, abutting, equal-start
spans, gaps, several tracks) and on real runs.  A scaling guard keeps a
quadratic walker from coming back unnoticed.
"""

from bisect import bisect_right
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import RunSpec, run
from repro.inspect import CriticalPath
from repro.inspect.critpath import _EPS, WAIT_MSG_KINDS, _Walker
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
            if s.t0 >= t - _EPS:
                break
            if s.t1 >= t - _EPS:
                if best is None or s.t0 > best.t0:
                    best = s
        return best

    def _last_end_before(self, pid, t):
        prev = 0.0
        for track in self.scan_tracks.values():
            for s in track:
                if s.t1 < t - _EPS and s.t1 > prev:
                    prev = s.t1
        for ts_list, _ in self.inbound.values():
            i = bisect_right(ts_list, t - _EPS) - 1
            if i >= 0 and ts_list[i] > prev:
                prev = ts_list[i]
        return prev


def assert_same_path(tel, end_ts=None, end_pid=None):
    got = CriticalPath.from_telemetry(tel, end_ts, end_pid)
    want_segments, want_end = ScanningWalker(tel).walk(end_ts, end_pid)
    assert got.end_ts == want_end
    assert got.segments == want_segments      # dataclass ==: float for float
    return got


# ----------------------------------------------------------------------
# Random captures.
# ----------------------------------------------------------------------

SPAN_NAMES = ("compute", "cpu.diff", "cpu.twin") + tuple(WAIT_MSG_KINDS)
MSG_KINDS = sorted({k for kinds in WAIT_MSG_KINDS.values() for k in kinds
                    if not k.startswith("rdma.")})
#: A coarse grid makes equal starts, equal ends and abutting spans common.
TICKS = st.integers(0, 40).map(lambda k: k * 2.5)


@st.composite
def captures(draw):
    nprocs = draw(st.integers(1, 4))
    tel = Telemetry()
    for _ in range(draw(st.integers(0, 30))):
        t0 = draw(TICKS)
        tel.spans.record(draw(st.integers(0, nprocs - 1)),
                         draw(st.sampled_from(SPAN_NAMES)),
                         t0, t0 + draw(TICKS))     # zero-length allowed
    for _ in range(draw(st.integers(0, 20))):
        src = draw(st.integers(0, nprocs - 1))
        tel.bus.emit(draw(TICKS), src, "net.msg", 0,
                     {"to": draw(st.integers(0, nprocs - 1)),
                      "msg": draw(st.sampled_from(MSG_KINDS)), "bytes": 8})
    return tel, nprocs


@given(captures(), st.data())
@settings(max_examples=300, deadline=None)
def test_random_captures_walk_identically(capture, data):
    tel, nprocs = capture
    assert_same_path(tel)
    assert_same_path(tel, end_ts=data.draw(TICKS) + 1.0,
                     end_pid=data.draw(st.integers(0, nprocs - 1)))


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
    assert sum(cp.totals().values()) == pytest.approx(cp.end_ts)
    assert cp.hops() >= 1250 - 1
    assert wall < 5.0, f"critical-path walk took {wall:.1f}s"
