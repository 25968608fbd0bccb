"""Critical-path attribution over the DES dependency graph.

End-to-end simulated time equals the length of the longest dependency
chain through the run: compute bursts, protocol CPU, and cross-processor
edges (lock hand-offs, barrier releases, diff responses, pushed data).
The analyzer reconstructs that chain by walking **backward** from the
finish time:

* at instant ``t`` on processor ``p``, find the innermost span covering
  ``t`` on ``p``'s track;
* a CPU span contributes a segment of its name's category
  (:data:`repro.telemetry.spans.CATEGORY`: compute, protocol, comm for
  message overheads) and the walk continues at its start;
* a ``wait.*`` span was released by a message — find the last ``net.msg``
  event delivered to ``p`` of the kind that can release that wait,
  attribute ``[send, t]`` to communication, and **jump to the sender**
  at the send time (the wait itself is off the critical path: the
  sender's activity bounds it);
* ``other`` is idle gaps only: time covered by no span.  Every CPU
  microsecond is booked as a span, and the category map is total, so
  nothing else is.

Segments tile ``[0, end]`` contiguously, so per-category totals sum
exactly to the end-to-end simulated time.

The walk ends by construction: every step moves ``t`` to a strictly
earlier span start, span end or message send (or 0), and those form a
finite set.  All comparisons are exact, so no tolerance is needed and
none can swallow a step at large ``t``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.telemetry.spans import CATEGORY

#: Which message kinds can release which wait span.  ``mp`` appears in
#: every entry because message-passing mode implements its barriers and
#: exchanges with plain ``mp`` sends.
WAIT_MSG_KINDS: Dict[str, Tuple[str, ...]] = {
    "wait.lock": ("lock_grant", "lock_sync_grant", "lock_win_ack",
                  "rdma.cmpl"),
    "wait.barrier": ("barrier_depart", "barrier_arrive", "mp"),
    "wait.fetch": ("diff_resp", "diff_donate", "push_data", "page_resp",
                   "mp", "rdma.cmpl", "rdma.put"),
    "wait.flush": ("home_flush_ack",),
    "wait.push": ("push_data", "rdma.put"),
}


@dataclass(frozen=True)
class Segment:
    """One contiguous stretch of the critical path."""

    pid: int
    t0: float
    t1: float
    category: str      # compute | protocol | wait | comm | other
    detail: str = ""

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"pid": self.pid, "t0": self.t0, "t1": self.t1,
                "dur_us": self.dur, "category": self.category,
                "detail": self.detail}


class CriticalPath:
    """The reconstructed bottleneck chain of one run."""

    def __init__(self, segments: List[Segment], end_ts: float) -> None:
        #: Chronological (earliest first) critical-path segments.
        self.segments = segments
        self.end_ts = end_ts

    # ------------------------------------------------------------------

    @classmethod
    def from_telemetry(cls, tel, end_ts: Optional[float] = None,
                       end_pid: Optional[int] = None) -> "CriticalPath":
        walker = _Walker(tel)
        return cls(*walker.walk(end_ts, end_pid))

    # ------------------------------------------------------------------
    # Analyses.
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        out = {"compute": 0.0, "protocol": 0.0, "wait": 0.0,
               "comm": 0.0, "other": 0.0}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.dur
        return out

    def dominant(self) -> str:
        """The category bounding end-to-end time."""
        totals = self.totals()
        return max(totals, key=lambda k: (totals[k], k))

    def top_segments(self, n: int = 10) -> List[Segment]:
        return sorted(self.segments, key=lambda s: (-s.dur, s.t0))[:n]

    def hops(self) -> int:
        """Cross-processor jumps along the chain."""
        return sum(1 for a, b in zip(self.segments, self.segments[1:])
                   if a.pid != b.pid)

    def as_dict(self, top: int = 10) -> dict:
        return {
            "end_ts": self.end_ts,
            "totals_us": self.totals(),
            "dominant": self.dominant(),
            "hops": self.hops(),
            "segments": len(self.segments),
            "top_segments": [s.as_dict() for s in self.top_segments(top)],
        }


class _Walker:
    """Backward walk state over one telemetry capture."""

    def __init__(self, tel) -> None:
        # Per-pid tracks sorted by start time: spans, their starts, and the
        # running maximum of their ends (what a span up to i can cover).
        self.tracks: Dict[int, Tuple[List, List[float], List[float]]] = {}
        for s in tel.spans.spans:
            self.tracks.setdefault(s.pid, ([], [], []))[0].append(s)
        for track, starts, reach in self.tracks.values():
            track.sort(key=lambda s: (s.t0, s.t1))
            starts.extend(s.t0 for s in track)
            reach.extend(accumulate((s.t1 for s in track), max))
        # What can close a gap: time 0, a span's end, a message's send.
        self._ends = sorted([0.0] + [s.t1 for s in tel.spans.spans])
        # Incoming messages per (dst, kind): parallel (ts, src) arrays
        # sorted by send time.
        self.inbound: Dict[Tuple[int, str], Tuple[List[float], List[int]]] \
            = {}
        for ev in tel.bus.events:
            args = ev.args or {}
            if ev.kind == "net.msg":
                key = (args.get("to"), args.get("msg"))
                src = ev.pid
            elif ev.kind == "net.rdma.cmpl":
                # Completion of a sync one-sided batch: serviced at the
                # host (ev.pid), released the initiator (args["to"]).
                key = (args.get("to"), "rdma.cmpl")
                src = ev.pid
            elif ev.kind == "net.rdma.put":
                # Posted-batch NIC deposit at ev.pid, initiated by
                # args["frm"]: can release a wait at the *host*.
                key = (ev.pid, "rdma.put")
                src = args.get("frm")
            else:
                continue
            ts_list, src_list = self.inbound.setdefault(key, ([], []))
            ts_list.append(ev.ts)
            src_list.append(src)
        self._sends = sorted([0.0] + [ts for ts_list, _ in
                                      self.inbound.values() for ts in ts_list])
        self._last_activity = self._find_end(tel)

    def _find_end(self, tel) -> Tuple[float, int]:
        end_ts, end_pid = 0.0, 0
        for s in tel.spans.spans:
            if s.t1 > end_ts:
                end_ts, end_pid = s.t1, s.pid
        for ev in tel.bus.events:
            if ev.ts > end_ts:
                end_ts, end_pid = ev.ts, ev.pid
        return end_ts, end_pid

    # ------------------------------------------------------------------

    def walk(self, end_ts: Optional[float], end_pid: Optional[int]) \
            -> Tuple[List[Segment], float]:
        if end_ts is None:
            end_ts = self._last_activity[0]
        if end_pid is None:
            end_pid = self._last_activity[1]
        segments: List[Segment] = []
        pid, t = end_pid, end_ts
        while t > 0:
            span = self._covering(pid, t)
            if span is None:
                prev = self._last_end_before(pid, t)
                segments.append(Segment(pid, prev, t, "other"))
                t = prev
                continue
            if span.name in WAIT_MSG_KINDS:
                released = self._releasing_msg(pid, span.name, t)
                if released is not None:
                    send_ts, src, kind = released
                    segments.append(Segment(
                        pid, send_ts, t, "comm",
                        detail=f"{kind} from P{src}"))
                    pid, t = src, send_ts
                    continue
            segments.append(Segment(pid, span.t0, t, CATEGORY[span.name],
                                    detail=span.name))
            t = span.t0
        segments.reverse()
        return _coalesce(segments), end_ts

    # ------------------------------------------------------------------

    def _covering(self, pid: int, t: float):
        """Innermost span on ``pid`` with ``t0 < t <= t1`` (latest start
        wins, splitting outer spans around it)."""
        track, starts, reach = self.tracks.get(pid, ((), (), ()))
        i = bisect_left(starts, t) - 1          # last span starting < t
        while i >= 0 and reach[i] >= t and track[i].t1 < t:
            i -= 1
        if i < 0 or reach[i] < t:
            return None
        # Equal starts sort by end: the earliest of them still covering.
        while i > 0 and starts[i - 1] == starts[i] and track[i - 1].t1 >= t:
            i -= 1
        return track[i]

    def _last_end_before(self, pid: int, t: float) -> float:
        """Close a no-span gap at the nearest earlier activity on any
        track (span end or message send strictly before ``t``, or 0), so
        'other' segments stay tight."""
        return max(self._ends[bisect_left(self._ends, t) - 1],
                   self._sends[bisect_left(self._sends, t) - 1])

    def _releasing_msg(self, pid: int, wait: str, t: float) \
            -> Optional[Tuple[float, int, str]]:
        """Latest message to ``pid`` (send time <= t) of a kind that can
        release ``wait``, if it was sent strictly before ``t``."""
        best: Optional[Tuple[float, int, str]] = None
        for kind in WAIT_MSG_KINDS[wait]:
            entry = self.inbound.get((pid, kind))
            if not entry:
                continue
            ts_list, src_list = entry
            i = bisect_right(ts_list, t) - 1
            if i >= 0 and (best is None or ts_list[i] > best[0]):
                best = (ts_list[i], src_list[i], kind)
        return best if best is not None and best[0] < t else None


def _coalesce(segments: List[Segment]) -> List[Segment]:
    """Merge adjacent same-pid same-category segments."""
    out: List[Segment] = []
    for seg in segments:
        if (out and out[-1].pid == seg.pid
                and out[-1].category == seg.category
                and out[-1].t1 == seg.t0):
            prev = out.pop()
            detail = prev.detail if prev.detail == seg.detail else \
                (prev.detail or seg.detail)
            out.append(Segment(seg.pid, prev.t0, seg.t1, seg.category,
                               detail))
        else:
            out.append(seg)
    return out
