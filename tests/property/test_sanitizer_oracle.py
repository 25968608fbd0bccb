"""Oracle test: the element-granular sanitizer against a per-byte one.

The shadow and the hint checker keep their state per element, shaped
like the arrays and addressed with the access plan's numpy index.  The
reference below keeps the implementation that replaced: one entry per
*byte* of the shared block, every section translated to contiguous byte
ranges and checked range by range (``ByteShadow`` and ``ByteHints`` are
those classes' bodies, unchanged).  Random streams of accesses,
validates, pushes, intervals and sync events over a two-array layout —
1-D and 2-D strided sections, pages holding several columns, elements
straddling a page edge, padded tail pages — must produce the same report:
every finding's category, kind, pid, element, byte counts, sites and
fold count, and the bytes checked.

One rule differs, on purpose.  ``ShadowMemory.access`` always promised
one conflict sample per distinct prior event, but the byte version
produced one per prior event *per contiguous range*, so a race's
``count`` grew with the number of columns a section spans.
``one_per_prior_event`` applies the documented rule to the reference's
samples; nothing else is adjusted.
"""

import json
from typing import Dict, List, Set, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import SharedLayout
from repro.memory.section import Section
from repro.rt.access import AccessType
from repro.sanitizer import Sanitizer
from repro.sanitizer.report import Finding, describe_event
from repro.telemetry.events import (Event, pack_dims, pack_sections,
                                    unpack_sections)

# ----------------------------------------------------------------------
# The per-byte reference.
# ----------------------------------------------------------------------

#: A conflict sample: (prior_event_index, prior_pid, byte_offset, kind).
Conflict = Tuple[int, int, int, str]


def locate(layout, offset: int) -> str:
    """Map a shared-block byte offset to ``array[index]`` for humans."""
    for info in layout.arrays.values():
        if info.base <= offset < info.base + info.nbytes:
            elem = (offset - info.base) // info.itemsize
            idx = []
            for extent in info.shape:          # Fortran order
                idx.append(elem % extent)
                elem //= extent
            return f"{info.name}[{', '.join(map(str, idx))}]"
    return f"byte {offset}"



class ByteShadow:
    """Last-access metadata per byte of the shared block."""

    def __init__(self, layout, nprocs: int) -> None:
        self.layout = layout
        self.nprocs = nprocs
        total = layout.total_bytes
        self.w_owner = np.full(total, -1, dtype=np.int32)
        self.w_clock = np.zeros(total, dtype=np.int64)
        self.w_event = np.full(total, -1, dtype=np.int64)
        self.r_clock = np.zeros((nprocs, total), dtype=np.int64)
        self.r_event = np.full((nprocs, total), -1, dtype=np.int64)
        self.bytes_checked = 0

    # ------------------------------------------------------------------

    def access(self, pid: int, is_write: bool,
               ranges: List[Tuple[int, int]], clock: List[int],
               event_idx: int) -> List[Conflict]:
        """Check one access against the shadow, then record it.

        ``ranges`` are the contiguous [start, stop) byte ranges of the
        accessed section; ``clock`` is the accessor's vector clock at
        this point in the stream.  Returns one conflict sample per
        distinct prior access event (not per byte).
        """
        C = np.asarray(clock, dtype=np.int64)
        own = int(clock[pid])
        conflicts: List[Conflict] = []
        for start, stop in ranges:
            self.bytes_checked += stop - start
            owners = self.w_owner[start:stop]
            others = (owners >= 0) & (owners != pid)
            if others.any():
                # My clock's component for each byte's last writer; the
                # np.where guard keeps the gather in bounds where there
                # is no writer (masked out by ``others``).
                c_at_owner = C[np.where(owners >= 0, owners, 0)]
                bad = others & (c_at_owner < self.w_clock[start:stop])
                if bad.any():
                    self._collect(conflicts, self.w_event[start:stop],
                                  owners, bad, start,
                                  "ww" if is_write else "wr")
            if is_write:
                for q in range(self.nprocs):
                    if q == pid:
                        continue
                    rc = self.r_clock[q, start:stop]
                    bad = (rc > 0) & (C[q] < rc)
                    if bad.any():
                        self._collect(conflicts,
                                      self.r_event[q, start:stop],
                                      None, bad, start, "rw", pid_b=q)
                self.w_owner[start:stop] = pid
                self.w_clock[start:stop] = own
                self.w_event[start:stop] = event_idx
                # A write subsumes the read history: future conflicts
                # with those reads are also conflicts with this write.
                self.r_clock[:, start:stop] = 0
            else:
                self.r_clock[pid, start:stop] = own
                self.r_event[pid, start:stop] = event_idx
        return conflicts

    @staticmethod
    def _collect(conflicts, events, owners, bad, start, kind,
                 pid_b: int = -1) -> None:
        """One sample (first bad byte) per distinct prior event."""
        idxs = np.flatnonzero(bad)
        prior = events[idxs]
        _, first = np.unique(prior, return_index=True)
        for i in first:
            b = int(idxs[i])
            who = pid_b if owners is None else int(owners[b])
            conflicts.append((int(prior[i]), who, start + b, kind))




class ByteHints:
    """Replays validates/pushes/accesses into coverage obligations."""

    def __init__(self, layout, nprocs: int, enabled: bool = True) -> None:
        self.layout = layout
        self.nprocs = nprocs
        self.enabled = enabled
        total = layout.total_bytes
        self._cov_read = np.zeros((nprocs, total), dtype=bool)
        self._cov_write = np.zeros((nprocs, total), dtype=bool)
        #: Bytes written by each pid in its current interval (R2/R3).
        self._wlog = np.zeros((nprocs, total), dtype=bool)
        self._oblig_read: List[Set[str]] = [set() for _ in range(nprocs)]
        self._oblig_write: List[Set[str]] = [set() for _ in range(nprocs)]
        self._pending: List[List[Tuple[list, AccessType]]] = [
            [] for _ in range(nprocs)]
        self.findings: List[Finding] = []
        self._seen: Dict[tuple, Finding] = {}

    # ------------------------------------------------------------------
    # Region lifecycle.
    # ------------------------------------------------------------------

    def on_sync(self, ev) -> None:
        """A sync event on ``ev.pid``: close the region, apply pending."""
        if not self.enabled:
            return
        pid = ev.pid
        if ev.kind == "tm.push":
            self._check_push_writes(ev)
        self._cov_read[pid] = False
        self._cov_write[pid] = False
        self._oblig_read[pid].clear()
        self._oblig_write[pid].clear()
        pending, self._pending[pid] = self._pending[pid], []
        for sections, access in pending:
            self._apply(pid, sections, access)
        if ev.kind == "tm.push":
            # The push's declared read sections are exactly what the
            # following region may read (exchange target or locally
            # owned); they seed the post-push coverage.
            reads = unpack_sections((ev.args or {}).get("reads", ()))
            for sec in reads:
                for start, stop in self._ranges(sec):
                    self._cov_read[pid, start:stop] = True
                self._oblig_read[pid].add(sec.array)

    def on_validate(self, ev) -> None:
        if not self.enabled:
            return
        args = ev.args or {}
        sections = unpack_sections(args.get("sections", ()))
        access = AccessType(args["access"])
        if args.get("w_sync"):
            # Takes effect with the fetch, at the next sync operation.
            self._pending[ev.pid].append((sections, access))
        else:
            self._apply(ev.pid, sections, access)

    def _apply(self, pid: int, sections, access: AccessType) -> None:
        for sec in sections:
            ranges = self._ranges(sec)
            if access.covers_read:
                for start, stop in ranges:
                    self._cov_read[pid, start:stop] = True
                self._oblig_read[pid].add(sec.array)
            if access.covers_write:
                for start, stop in ranges:
                    self._cov_write[pid, start:stop] = True
                self._oblig_write[pid].add(sec.array)

    # ------------------------------------------------------------------
    # Access checking (R1) and the write log.
    # ------------------------------------------------------------------

    def on_access(self, ev) -> None:
        pid = ev.pid
        sec = Section(ev.args["array"],
                      tuple(tuple(d) for d in ev.args["dims"]))
        ranges = self._ranges(sec)
        write = ev.kind == "rt.write"
        if write:
            for start, stop in ranges:
                self._wlog[pid, start:stop] = True
        if not self.enabled:
            return
        if write:
            obliged = sec.array in self._oblig_write[pid]
            cov = self._cov_write
        else:
            obliged = sec.array in self._oblig_read[pid]
            cov = self._cov_read
        if not obliged:
            return
        for start, stop in ranges:
            miss = ~cov[pid, start:stop]
            if miss.any():
                off = start + int(np.flatnonzero(miss)[0])
                kind = "uncovered-write" if write else "uncovered-read"
                self._add(
                    key=(kind, pid, sec.array),
                    finding=Finding(
                        category="hint", kind=kind, pid=pid,
                        array=sec.array,
                        where=locate(self.layout, off),
                        detail=(f"P{pid} {'write' if write else 'read'} "
                                f"of {locate(self.layout, off)} escapes "
                                f"the region's validated sections"),
                        site=describe_event(ev)))
                return

    # ------------------------------------------------------------------
    # Interval retirement (R2) and push claims (R3).
    # ------------------------------------------------------------------

    def on_interval(self, ev) -> None:
        pid = ev.pid
        # A crash-closed interval (``crash=True``) retires whatever the
        # victim had written so far; a partially-written overwrite page
        # there is the crash's fault, not a bad hint.
        if self.enabled and not (ev.args or {}).get("crash"):
            ps = self.layout.page_size
            for page in (ev.args or {}).get("overwrite", ()):
                page_log = self._wlog[pid, page * ps:(page + 1) * ps]
                miss = ~page_log
                if miss.any() and page_log.any():
                    off = page * ps + int(np.flatnonzero(miss)[0])
                    self._add(
                        key=("partial-overwrite", pid, page),
                        finding=Finding(
                            category="hint", kind="partial-overwrite",
                            pid=pid, array=locate(self.layout, off),
                            where=locate(self.layout, off),
                            detail=(f"P{pid} interval {ev.args['index']}"
                                    f" retired partially-written "
                                    f"overwrite page {page}: "
                                    f"{locate(self.layout, off)} and "
                                    f"{int(miss.sum())} bytes total "
                                    f"were never written, yet the "
                                    f"WRITE_ALL hint propagates the "
                                    f"whole page as fresh"),
                            site=describe_event(ev)))
        self._wlog[pid] = False

    def _check_push_writes(self, ev) -> None:
        pid = ev.pid
        writes = unpack_sections((ev.args or {}).get("writes", ()))
        claimed = np.zeros(self.layout.total_bytes, dtype=bool)
        for sec in writes:
            for start, stop in self._ranges(sec):
                claimed[start:stop] = True
        stray = self._wlog[pid] & ~claimed
        if stray.any():
            off = int(np.flatnonzero(stray)[0])
            self._add(
                key=("unpushed-write", pid, locate(self.layout, off)),
                finding=Finding(
                    category="hint", kind="unpushed-write", pid=pid,
                    array=locate(self.layout, off).split("[")[0],
                    where=locate(self.layout, off),
                    detail=(f"P{pid} wrote {locate(self.layout, off)} "
                            f"({int(stray.sum())} bytes) before a Push "
                            f"whose write sections do not declare it; "
                            f"receivers will never see the update"),
                    site=describe_event(ev)))

    # ------------------------------------------------------------------

    def _ranges(self, sec: Section):
        return self.layout.byte_ranges(sec)

    def _add(self, key: tuple, finding: Finding) -> None:
        prior = self._seen.get(key)
        if prior is not None:
            prior.count += 1
            return
        self._seen[key] = finding
        self.findings.append(finding)


def one_per_prior_event(conflicts):
    """Ranges ascend, so an event's first sample is its lowest address;
    write conflicts come by event, then read conflicts by reader."""
    first = {}
    for c in conflicts:
        first.setdefault((c[0], c[3]), c)
    return sorted(first.values(),
                  key=lambda c: (c[3] == "rw", c[1] * (c[3] == "rw"), c[0]))


class ByteSanitizer(Sanitizer):
    """The sanitizer over the per-byte checkers (its former access path)."""

    def __init__(self, layout, nprocs, hint_checking) -> None:
        super().__init__(layout, nprocs, hint_checking=hint_checking)
        self.shadow = ByteShadow(layout, nprocs)
        self.hints = ByteHints(layout, nprocs, enabled=hint_checking)

    def _on_access(self, ev, idx):
        self._accesses += 1
        pid = ev.pid
        sec = Section(ev.args["array"],
                      tuple(tuple(d) for d in ev.args["dims"]))
        ranges = self.layout.byte_ranges(sec)
        is_write = ev.kind == "rt.write"
        conflicts = self.shadow.access(
            pid, is_write, ranges, self.tracker.clock(pid), idx)
        for prior_idx, prior_pid, off, ckind in \
                one_per_prior_event(conflicts):
            prior = self._events[prior_idx]
            key = (prior_pid, pid, sec.array, ckind)
            found = self._race_keys.get(key)
            if found is not None:
                found.count += 1
                continue
            names = {"ww": "write/write", "rw": "read/write",
                     "wr": "write/read"}
            found = Finding(
                category="race", kind="race", pid=pid, array=sec.array,
                where=locate(self.layout, off),
                detail=(f"{names[ckind]} race on "
                        f"{locate(self.layout, off)} between "
                        f"P{prior_pid} and P{pid}: no lock chain, "
                        f"barrier, or push orders them"),
                site=describe_event(ev),
                other=describe_event(prior),
                sync=(f"P{pid} {self.tracker.context(pid)}; "
                      f"P{prior_pid} {self.tracker.context(prior_pid)}"))
            self._race_keys[key] = found
            self._races.append(found)
        self.hints.on_access(ev)


# ----------------------------------------------------------------------
# Random streams.
# ----------------------------------------------------------------------

SHAPES = {"u": (6, 5), "v": (20,)}
#: u's column is 48 bytes: 64 splits columns across pages, 128 and 256
#: put several on one, 100 makes elements straddle; every size leaves a
#: padded tail behind u (240 bytes) and v (80).
PAGE_SIZES = (64, 100, 128, 256)


def make_layout(page_size):
    layout = SharedLayout(page_size=page_size)
    layout.add_array("u", SHAPES["u"])
    layout.add_array("v", SHAPES["v"], np.int32)
    return layout


@st.composite
def sections(draw):
    array = draw(st.sampled_from(sorted(SHAPES)))
    if draw(st.integers(0, 5)) == 0:    # reaches the tail padding (R2)
        return Section.whole(array, SHAPES[array])
    dims = []
    for extent in SHAPES[array]:
        lo = draw(st.integers(0, extent - 1))
        dims.append((lo, draw(st.integers(lo, extent - 1)),
                     draw(st.integers(1, 3))))
    return Section(array, tuple(dims))


@st.composite
def streams(draw):
    nprocs = draw(st.integers(2, 3))
    page_size = draw(st.sampled_from(PAGE_SIZES))
    npages = make_layout(page_size).npages
    pids = st.integers(0, nprocs - 1)
    few = st.lists(sections(), max_size=2)
    events = []

    def emit(pid, kind, **args):
        events.append(Event(float(len(events)), pid, kind, 0, args))

    for _ in range(draw(st.integers(1, 40))):
        what = draw(st.sampled_from(
            ("access",) * 6 + ("validate", "validate", "interval", "push",
                               "barrier", "acquire", "release", "grant")))
        pid = draw(pids)
        if what == "access":
            sec = draw(sections())
            emit(pid, draw(st.sampled_from(("rt.read", "rt.write"))),
                 array=sec.array, dims=pack_dims(sec.dims), pages=())
        elif what == "validate":
            emit(pid, "tm.validate", sections=pack_sections(draw(few)),
                 access=draw(st.sampled_from(list(AccessType))).value,
                 w_sync=draw(st.booleans()))
        elif what == "interval":
            emit(pid, "tm.interval", index=len(events),
                 overwrite=tuple(draw(st.sets(st.integers(0, npages - 1),
                                              max_size=3))),
                 crash=draw(st.integers(0, 7)) == 0)
        elif what == "push":
            emit(pid, "tm.push", round=len(events),
                 reads=pack_sections(draw(few)),
                 writes=pack_sections(draw(few)))
            for q in range(nprocs):
                if q != pid and draw(st.booleans()):
                    emit(q, "tm.push_recv", src=pid,
                         round=events[-1].args.get("round", len(events)))
        elif what == "barrier":
            for q in range(nprocs):
                emit(q, "tm.barrier")
        elif what == "grant":
            emit(pid, "tm.lock_grant", lid=draw(st.integers(0, 1)),
                 to=draw(pids))
        else:
            emit(pid, f"tm.lock_{what}", lid=draw(st.integers(0, 1)))
    return nprocs, page_size, events


def as_replayed(ev):
    """The event as a JSONL round trip hands it back (dims as lists)."""
    return Event(ev.ts, ev.pid, ev.kind, ev.epoch,
                 json.loads(json.dumps(ev.args)))


@given(streams(), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_reports_equal_the_per_byte_reference(stream, hints, replayed):
    nprocs, page_size, events = stream
    new = Sanitizer(make_layout(page_size), nprocs, hint_checking=hints)
    ref = ByteSanitizer(make_layout(page_size), nprocs, hints)
    for ev in events:
        new.feed(as_replayed(ev) if replayed else ev)
        ref.feed(ev)
    got, want = new.finish().as_dict(), ref.finish().as_dict()
    assert got == want
