"""Unit tests for the DSM sanitizer: clocks, shadow state, hint rules.

Synthetic event streams drive each component through its edge cases;
small real runs pin down the end-to-end drivers (online == offline,
JSONL replay round-trip).
"""

import numpy as np
import pytest

from repro.memory import SharedLayout
from repro.memory.section import Section
from repro.rt.access import AccessType
from repro.sanitizer import Sanitizer
from repro.sanitizer.clocks import SyncTracker, join
from repro.sanitizer.shadow import ShadowMemory
from repro.telemetry.events import (Event, pack_dims, pack_sections,
                                    unpack_sections)


def ev(pid, kind, ts=0.0, **args):
    return Event(ts=ts, pid=pid, kind=kind, epoch=0, args=args)


def layout_1d(n=32, page_size=64, name="a"):
    layout = SharedLayout(page_size=page_size)
    layout.add_array(name, (n,))
    return layout


# ----------------------------------------------------------------------
# Vector clocks.
# ----------------------------------------------------------------------

class TestSyncTracker:
    def test_initial_clocks_distinct(self):
        tr = SyncTracker(3)
        assert tr.clock(0) == [1, 0, 0]
        assert tr.clock(2) == [0, 0, 1]

    def test_join(self):
        a = [3, 0, 5]
        join(a, [1, 4, 2])
        assert a == [3, 4, 5]

    def test_release_grant_chain_orders(self):
        tr = SyncTracker(2)
        tr.handle(ev(0, "tm.lock_acquire", lid=7))
        tr.handle(ev(0, "tm.lock_release", lid=7))
        before = list(tr.clock(1))
        tr.handle(ev(1, "tm.lock_acquire", lid=7))
        tr.handle(ev(1, "tm.lock_grant", lid=7, to=1))
        after = tr.clock(1)
        # P1 now dominates P0's released clock; P0's component moved on.
        assert after != before
        assert after[0] >= 1

    def test_release_advances_own_component(self):
        tr = SyncTracker(2)
        c0 = tr.clock(0)[0]
        tr.handle(ev(0, "tm.lock_acquire", lid=1))
        tr.handle(ev(0, "tm.lock_release", lid=1))
        assert tr.clock(0)[0] == c0 + 1

    def test_first_grant_without_release_is_no_edge(self):
        tr = SyncTracker(2)
        tr.handle(ev(1, "tm.lock_acquire", lid=3))
        tr.handle(ev(0, "tm.lock_grant", lid=3, to=1))
        assert tr.clock(1) == [0, 1]
        assert tr.unmatched == []

    def test_barrier_joins_all(self):
        tr = SyncTracker(3)
        tr.handle(ev(0, "tm.lock_acquire", lid=0))
        tr.handle(ev(0, "tm.lock_release", lid=0))  # clock(0) = [2,0,0]
        for pid in range(3):
            tr.handle(ev(pid, "tm.barrier"))
        assert tr.barriers_completed == 1
        assert tr.pending_barrier() is None
        # Everyone saw P0's pre-barrier clock; own components advanced.
        for pid in range(3):
            assert tr.clock(pid)[0] >= 2

    def test_incomplete_barrier_pending(self):
        tr = SyncTracker(2)
        tr.handle(ev(0, "tm.barrier"))
        assert tr.pending_barrier() == 1

    def test_push_orders_receiver(self):
        tr = SyncTracker(2)
        tr.handle(ev(0, "tm.lock_acquire", lid=0))
        tr.handle(ev(0, "tm.lock_release", lid=0))
        sender = list(tr.clock(0))
        tr.handle(ev(0, "tm.push", round=1))
        tr.handle(ev(1, "tm.push_recv", src=0, round=1))
        # Receiver joined the sender's snapshot, not the advanced clock.
        assert tr.clock(1)[0] == sender[0]
        assert tr.clock(0)[0] == sender[0] + 1

    def test_unmatched_push_recv_reported(self):
        tr = SyncTracker(2)
        tr.handle(ev(1, "tm.push_recv", src=0, round=9))
        assert len(tr.unmatched) == 1


# ----------------------------------------------------------------------
# Shadow memory.
# ----------------------------------------------------------------------

class TestShadowMemory:
    def test_ww_conflict_detected(self):
        layout = layout_1d()
        sh = ShadowMemory(layout, 2)
        r = layout.resolve(Section("a", ((0, 3, 1),)))[1]
        assert sh.access(0, True, "a", r, [1, 0], 0) == []
        conflicts = sh.access(1, True, "a", r, [0, 1], 1)
        assert conflicts and conflicts[0][3] == "ww"

    def test_ordered_writes_no_conflict(self):
        layout = layout_1d()
        sh = ShadowMemory(layout, 2)
        r = layout.resolve(Section("a", ((0, 3, 1),)))[1]
        sh.access(0, True, "a", r, [1, 0], 0)
        # P1's clock dominates P0's component: ordered, no race.
        assert sh.access(1, True, "a", r, [1, 1], 1) == []

    def test_read_write_conflict_both_ways(self):
        layout = layout_1d()
        sh = ShadowMemory(layout, 2)
        r = layout.resolve(Section("a", ((0, 0, 1),)))[1]
        sh.access(0, True, "a", r, [1, 0], 0)
        rw = sh.access(1, False, "a", r, [0, 1], 1)
        assert rw and rw[0][3] == "wr"
        sh2 = ShadowMemory(layout, 2)
        sh2.access(0, False, "a", r, [1, 0], 0)
        wr = sh2.access(1, True, "a", r, [0, 1], 1)
        assert wr and wr[0][3] == "rw"

    def test_concurrent_reads_fine(self):
        layout = layout_1d()
        sh = ShadowMemory(layout, 2)
        r = layout.resolve(Section("a", ((0, 7, 1),)))[1]
        assert sh.access(0, False, "a", r, [1, 0], 0) == []
        assert sh.access(1, False, "a", r, [0, 1], 1) == []

    def test_one_sample_per_prior_event(self):
        layout = layout_1d()
        sh = ShadowMemory(layout, 2)
        r = layout.resolve(Section("a", ((0, 7, 1),)))[1]
        sh.access(0, True, "a", r, [1, 0], 0)
        conflicts = sh.access(1, True, "a", r, [0, 1], 1)
        assert len(conflicts) == 1  # 8 elements, one prior event


def race_of_unordered_writes(*p0_sections, p1_section):
    """P0 writes ``p0_sections`` of an 8x8 array, then P1 writes
    ``p1_section`` with no sync between them: the one race finding."""
    layout = SharedLayout(page_size=64)
    layout.add_array("a", (8, 8))
    san = Sanitizer(layout, 2)
    for sec in p0_sections:
        san.feed(access_ev(0, "rt.write", sec, layout))
    san.feed(access_ev(1, "rt.write", p1_section, layout))
    [race] = san.finish().findings
    return race


def test_strided_section_is_one_conflict_per_prior_access():
    # Rows 1,3,5 of columns 0,3,6: nine separate byte ranges, which
    # used to count the one prior access nine times.
    sec = Section("a", ((1, 5, 2), (0, 6, 3)))
    race = race_of_unordered_writes(sec, p1_section=sec)
    assert race.kind == "race" and race.count == 1
    assert race.where == "a[1, 0]"


def test_conflict_is_sampled_at_its_lowest_address():
    # With a[0, 0] rewritten by a later access, the first access still
    # conflicts on an L-shaped rest of its block; in (Fortran) address
    # order that starts at a[1, 0], not a[0, 1].
    block = Section("a", ((0, 2, 1), (0, 2, 1)))
    race = race_of_unordered_writes(
        block, Section("a", ((0, 0, 1), (0, 0, 1))), p1_section=block)
    assert race.where == "a[1, 0]"
    assert race.count == 2          # two prior accesses, one sample each


# ----------------------------------------------------------------------
# Hint rules, through the full Sanitizer dispatch.
# ----------------------------------------------------------------------

def hint_san(layout, nprocs=1):
    return Sanitizer(layout, nprocs, hint_checking=True)


def validate_ev(pid, sections, access, w_sync=False):
    return ev(pid, "tm.validate", access=access.value, w_sync=w_sync,
              sections=pack_sections(sections))


def access_ev(pid, kind, sec, layout):
    return ev(pid, kind, array=sec.array, dims=pack_dims(sec.dims),
              pages=tuple(layout.pages_of(sec)))


class TestHintRules:
    def test_r1_uncovered_write(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(validate_ev(0, [Section("a", ((0, 7, 1),))],
                             AccessType.WRITE_ALL))
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 15, 1),)),
                           layout))
        kinds = [f.kind for f in san.finish().findings]
        assert "uncovered-write" in kinds

    def test_r1_uncovered_read(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(validate_ev(0, [Section("a", ((0, 7, 1),))],
                             AccessType.READ))
        san.feed(access_ev(0, "rt.read", Section("a", ((8, 15, 1),)),
                           layout))
        kinds = [f.kind for f in san.finish().findings]
        assert kinds == ["uncovered-read"]

    def test_r1_unhinted_array_exempt(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(access_ev(0, "rt.read", Section("a", ((0, 15, 1),)),
                           layout))
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 15, 1),)),
                           layout))
        assert san.finish().findings == []

    def test_r1_region_reset_at_sync(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(validate_ev(0, [Section("a", ((0, 7, 1),))],
                             AccessType.READ))
        san.feed(ev(0, "tm.barrier"))
        # New region: "a" is no longer obliged, reads go unchecked.
        san.feed(access_ev(0, "rt.read", Section("a", ((8, 15, 1),)),
                           layout))
        assert san.finish().findings == []

    def test_w_sync_validate_applies_after_sync(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(validate_ev(0, [Section("a", ((0, 7, 1),))],
                             AccessType.READ, w_sync=True))
        # Before the sync the hint is pending: array unobliged.
        san.feed(access_ev(0, "rt.read", Section("a", ((8, 15, 1),)),
                           layout))
        assert san.finish().findings == []
        san2 = hint_san(layout)
        san2.feed(validate_ev(0, [Section("a", ((0, 7, 1),))],
                              AccessType.READ, w_sync=True))
        san2.feed(ev(0, "tm.barrier"))
        san2.feed(access_ev(0, "rt.read", Section("a", ((8, 15, 1),)),
                            layout))
        kinds = [f.kind for f in san2.finish().findings]
        assert kinds == ["uncovered-read"]

    def test_r2_partial_overwrite_flagged(self):
        layout = layout_1d(n=32, page_size=64)  # 4 pages of 8 elems
        san = hint_san(layout)
        # Write only half of page 0, then retire it as overwrite.
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 3, 1),)),
                           layout))
        san.feed(ev(0, "tm.interval", index=1, overwrite=(0,)))
        kinds = [f.kind for f in san.finish().findings]
        assert kinds == ["partial-overwrite"]

    def test_r2_zero_write_overwrite_exempt(self):
        # An async READ_WRITE_ALL validate drained at a barrier marks
        # pages overwrite with no program writes; propagating a valid
        # page's unchanged content is redundant, not unsound.
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(ev(0, "tm.interval", index=1, overwrite=(0,)))
        assert san.finish().findings == []

    def test_r2_fully_written_overwrite_clean(self):
        layout = layout_1d(n=32, page_size=64)
        san = hint_san(layout)
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 7, 1),)),
                           layout))
        san.feed(ev(0, "tm.interval", index=1, overwrite=(0,)))
        assert san.finish().findings == []

    def test_r2_wlog_clears_per_interval(self):
        layout = layout_1d(n=32, page_size=64)
        san = hint_san(layout)
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 3, 1),)),
                           layout))
        san.feed(ev(0, "tm.interval", index=1, overwrite=()))
        # The earlier half-write belongs to a retired interval.
        san.feed(ev(0, "tm.interval", index=2, overwrite=(0,)))
        assert san.finish().findings == []

    def test_r3_unpushed_write(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 15, 1),)),
                           layout))
        san.feed(ev(0, "tm.push", round=1,
                    reads=pack_sections([]),
                    writes=pack_sections([Section("a", ((0, 7, 1),))])))
        kinds = [f.kind for f in san.finish().findings]
        assert "unpushed-write" in kinds

    def test_r3_declared_writes_clean(self):
        layout = layout_1d()
        san = hint_san(layout)
        sec = Section("a", ((0, 15, 1),))
        san.feed(access_ev(0, "rt.write", sec, layout))
        san.feed(ev(0, "tm.push", round=1, reads=pack_sections([]),
                    writes=pack_sections([sec])))
        assert san.finish().findings == []

    def test_push_reads_seed_next_region(self):
        layout = layout_1d()
        san = hint_san(layout)
        san.feed(ev(0, "tm.push", round=1,
                    reads=pack_sections([Section("a", ((0, 7, 1),))]),
                    writes=pack_sections([])))
        san.feed(access_ev(0, "rt.read", Section("a", ((8, 15, 1),)),
                           layout))
        kinds = [f.kind for f in san.finish().findings]
        assert kinds == ["uncovered-read"]

    def test_hint_checking_disabled_records_nothing(self):
        layout = layout_1d()
        san = Sanitizer(layout, 1, hint_checking=False)
        san.feed(validate_ev(0, [Section("a", ((0, 3, 1),))],
                             AccessType.WRITE_ALL))
        san.feed(access_ev(0, "rt.write", Section("a", ((0, 15, 1),)),
                           layout))
        assert san.finish().findings == []


# ----------------------------------------------------------------------
# Section packing round-trip.
# ----------------------------------------------------------------------

def test_pack_unpack_sections_roundtrip():
    secs = [Section("a", ((0, 7, 1),)), Section("b", ((2, 9, 3),
                                                      (0, 0, 1)))]
    packed = pack_sections(secs)
    assert unpack_sections(packed) == secs
    # JSON round-trip shape: lists instead of tuples still unpack.
    as_lists = [[a, [list(d) for d in dims]] for a, dims in packed]
    assert unpack_sections(as_lists) == secs


# ----------------------------------------------------------------------
# End-to-end drivers on one small real run.
# ----------------------------------------------------------------------

class TestReplayDrivers:
    def test_online_equals_offline(self):
        from repro.sanitizer import sanitize_run

        _, on = sanitize_run("jacobi", opt="aggr+cons")
        _, off = sanitize_run("jacobi", opt="aggr+cons", online=False)
        assert on.ok and off.ok
        assert on.events == off.events
        assert on.accesses == off.accesses
        assert on.sync_counts == off.sync_counts

    def test_jsonl_roundtrip(self, tmp_path):
        from repro.harness.spec import RunSpec, run
        from repro.sanitizer.replay import sanitize_jsonl
        from repro.telemetry import Telemetry

        tel = Telemetry(access_events=True)
        run(RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                    opt="aggr+cons", telemetry=tel))
        path = tmp_path / "run.jsonl"
        tel.write_jsonl(path)
        rep = sanitize_jsonl(path, "jacobi", opt="aggr+cons")
        assert rep.ok, rep.render()
        assert rep.accesses > 0 and rep.sync_counts["barriers"] > 0

    def test_replay_of_an_unknown_record_is_a_typed_error(self, tmp_path,
                                                          capsys):
        """The replay reads JSONL with the one reader the telemetry
        owns: a record it does not know stops the CLI (exit 2, one
        ``error:`` line) instead of being skipped."""
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"rec": "event", "ts": 0.0, "pid": 0, "kind": "tm.barrier",'
            ' "epoch": 1}\n{"rec": "bogus", "ts": 1.0, "pid": 0}\n')
        assert main(["sanitize", "jacobi", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'bogus'" in err

    def test_reconcile_against_outcome(self):
        from repro.sanitizer import sanitize_run

        _, rep = sanitize_run("jacobi", opt="push")
        assert rep.problems == []
        assert rep.sync_counts["pushes"] > 0

    def test_report_as_dict_and_render(self):
        from repro.sanitizer import sanitize_run

        _, rep = sanitize_run("is", opt="aggr+cons")
        d = rep.as_dict()
        assert d["ok"] is True
        assert d["accesses"] == rep.accesses
        assert "CLEAN" in rep.render()
