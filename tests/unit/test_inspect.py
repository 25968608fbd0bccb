"""Unit tests for the protocol inspector (repro.inspect)."""

import json

import pytest

from repro.harness import RunSpec, run
from repro.harness.outcome import RunOutcome
from repro.inspect import (ContentionProfile, CriticalPath,
                           InspectReport, PageTimelines, baseline,
                           compare_entry)
from repro.telemetry import Telemetry


def make_tel():
    """A bare Telemetry used as a hand-filled event/span container."""
    return Telemetry()


def emit(tel, ts, pid, kind, epoch=0, **args):
    tel.bus.emit(ts, pid, kind, epoch, args or None)


# ======================================================================
# Page timelines.
# ======================================================================

def test_timeline_replays_fetch_cycle_without_violations():
    tel = make_tel()
    # P1 writes page 0 (twin + enable), closes an interval; P0 gets the
    # invalidation, read-faults, applies the diff, becomes valid.
    emit(tel, 1.0, 1, "tm.write_fault", page=0)
    emit(tel, 2.0, 1, "tm.twin", page=0)
    emit(tel, 3.0, 1, "tm.write_enable", page=0)
    emit(tel, 4.0, 1, "tm.interval", index=1, npages=1, pages=(0,))
    emit(tel, 5.0, 0, "tm.invalidate", page=0, writer=1, interval=1)
    emit(tel, 6.0, 0, "tm.read_fault", page=0)
    emit(tel, 7.0, 1, "tm.diff_create", page=0, interval=1)
    emit(tel, 8.0, 0, "tm.diff_apply", page=0, writer=1, interval=1,
         bytes=16)
    emit(tel, 9.0, 0, "tm.page_valid", page=0)

    tl = PageTimelines.from_telemetry(tel)
    assert tl.violations == []
    c = tl.counters[0]
    assert (c.read_faults, c.write_faults, c.twins) == (1, 1, 1)
    assert c.diffs_created == c.diffs_applied == 1
    assert c.diff_bytes == 16
    assert c.writers == {1} and c.readers == {0}
    # P0's reconstructed state: valid again, not write-enabled.
    st = tl.states[(0, 0)]
    assert st.valid and not st.write_enabled
    assert [t.kind for t in tl.timeline(0)] == [
        "write_fault", "twin", "write_enable", "interval", "invalidate",
        "read_fault", "diff_create", "diff_apply", "page_valid"]


@pytest.mark.parametrize("events,expect", [
    # A diff applied to a page this pid never had invalidated.
    ([(1.0, 0, "tm.diff_apply", dict(page=3, writer=1, bytes=4))],
     "never-invalidated"),
    # A write fault while the page is already write-enabled.
    ([(1.0, 0, "tm.write_enable", dict(page=3)),
      (2.0, 0, "tm.write_fault", dict(page=3))],
     "write-enabled"),
    # Twin created while a twin is live.
    ([(1.0, 0, "tm.twin", dict(page=3)),
      (2.0, 0, "tm.twin", dict(page=3))],
     "twin is live"),
    # Diff created with no twin to diff against.
    ([(1.0, 0, "tm.diff_create", dict(page=3, interval=1))],
     "no live twin"),
    # Read fault on a page that is still valid.
    ([(1.0, 0, "tm.read_fault", dict(page=3))],
     "valid"),
    # Invalidating an already-invalid page.
    ([(1.0, 0, "tm.invalidate", dict(page=3)),
      (2.0, 0, "tm.invalidate", dict(page=3))],
     "already-invalid"),
])
def test_timeline_flags_illegal_transitions(events, expect):
    tel = make_tel()
    for ts, pid, kind, args in events:
        emit(tel, ts, pid, kind, **args)
    tl = PageTimelines.from_telemetry(tel)
    assert tl.violations, "expected a violation"
    assert expect in tl.violations[-1]


def test_timeline_hot_and_multi_writer_rankings():
    tel = make_tel()
    for pid in (0, 1):                      # two writers on page 5
        emit(tel, 1.0 + pid, pid, "tm.write_fault", page=5)
        emit(tel, 2.0 + pid, pid, "tm.twin", page=5)
        emit(tel, 3.0 + pid, pid, "tm.write_enable", page=5)
    emit(tel, 6.0, 0, "tm.invalidate", page=5, writer=1)
    emit(tel, 7.0, 1, "tm.write_fault", page=9)   # single-writer page
    emit(tel, 7.5, 1, "tm.twin", page=9)
    tl = PageTimelines.from_telemetry(tel)
    assert tl.hot_pages(1)[0].page == 5
    mw = tl.multi_writer_pages()
    assert [c.page for c in mw] == [5]
    assert mw[0].writers == {0, 1}


# ======================================================================
# Contention profiles.
# ======================================================================

def test_lock_waits_attributed_to_lock_ids():
    tel = make_tel()
    emit(tel, 10.0, 1, "tm.lock_acquire", lid=7)
    tel.spans.record(1, "wait.lock", 10.0, 25.0)
    emit(tel, 30.0, 1, "tm.lock_acquire", lid=8)
    tel.spans.record(1, "wait.lock", 30.0, 31.0)
    emit(tel, 40.0, 0, "tm.lock_grant", lid=7, to=1)
    prof = ContentionProfile.from_telemetry(tel)
    assert prof.locks[7].total_wait == pytest.approx(15.0)
    assert prof.locks[8].total_wait == pytest.approx(1.0)
    assert prof.locks[7].grants == 1
    assert prof.hot_locks(1)[0].lid == 7
    assert prof.unattributed == []
    assert prof.total_lock_wait() == pytest.approx(16.0)


def test_barrier_epochs_spread_and_straggler():
    tel = make_tel()
    tel.spans.record(0, "wait.barrier", 10.0, 11.0, epoch=1)  # straggler
    tel.spans.record(1, "wait.barrier", 2.0, 11.0, epoch=1)
    tel.spans.record(2, "wait.barrier", 5.0, 11.0, epoch=1)
    prof = ContentionProfile.from_telemetry(tel)
    ep = prof.barriers[1]
    assert ep.straggler == 0
    assert ep.spread == pytest.approx(8.0)
    assert ep.total_wait == pytest.approx(16.0)


# ======================================================================
# Critical path.
# ======================================================================

def test_critical_path_jumps_to_sender_and_tiles_end_to_end():
    tel = make_tel()
    # P0 computes 0-40 then waits 40-100 for a lock; P1 computes 0-60
    # and sends the grant at 60.
    tel.spans.record(0, "compute", 0.0, 40.0)
    tel.spans.record(0, "wait.lock", 40.0, 100.0)
    tel.spans.record(1, "compute", 0.0, 60.0)
    emit(tel, 60.0, 1, "net.msg", to=0, msg="lock_grant", bytes=32)
    cp = CriticalPath.from_telemetry(tel, end_ts=100.0, end_pid=0)
    totals = cp.totals()
    assert sum(totals.values()) == pytest.approx(100.0)
    # 0-60 on P1 (compute), 60-100 comm back to P0.
    assert totals["compute"] == pytest.approx(60.0)
    assert totals["comm"] == pytest.approx(40.0)
    assert totals["wait"] == pytest.approx(0.0)
    pids = [s.pid for s in cp.segments]
    assert pids == [1, 0]
    assert cp.hops() == 1
    assert cp.dominant() == "compute"


def test_critical_path_unreleased_wait_counts_as_wait():
    tel = make_tel()
    tel.spans.record(0, "compute", 0.0, 10.0)
    tel.spans.record(0, "wait.barrier", 10.0, 50.0)
    cp = CriticalPath.from_telemetry(tel, end_ts=50.0, end_pid=0)
    totals = cp.totals()
    assert totals["wait"] == pytest.approx(40.0)
    assert totals["compute"] == pytest.approx(10.0)
    assert sum(totals.values()) == pytest.approx(50.0)


def test_critical_path_gap_becomes_other():
    tel = make_tel()
    tel.spans.record(0, "compute", 0.0, 10.0)
    cp = CriticalPath.from_telemetry(tel, end_ts=30.0, end_pid=0)
    totals = cp.totals()
    assert totals["other"] == pytest.approx(20.0)
    assert sum(totals.values()) == pytest.approx(30.0)


def synthetic_report(spans, end):
    """The report over a hand-filled capture of ``(pid, name, t0, t1)``
    spans, as if a run had ended at ``end``."""
    tel = make_tel()
    for pid, name, t0, t1 in spans:
        tel.spans.record(pid, name, t0, t1)
    return InspectReport.build(RunOutcome(mode="dsm", time=end, arrays={},
                                          telemetry=tel))


def test_overlapping_cpu_spans_are_reported():
    rep = synthetic_report([(0, "compute", 0.0, 10.0),
                            (0, "cpu.diff", 8.0, 12.0),
                            (1, "compute", 0.0, 12.0)], 12.0)
    assert rep.reconcile() == [
        "cpu spans: P0 has 1 overlapping neighbour(s), first compute "
        "[0.0, 10.0] and cpu.diff [8.0, 12.0]"]


def test_abutting_cpu_spans_and_cpu_inside_a_wait_are_not():
    rep = synthetic_report([(0, "compute", 0.0, 10.0),
                            (0, "cpu.diff", 10.0, 12.0),
                            (0, "wait.barrier", 12.0, 20.0),
                            (0, "net.interrupt", 14.0, 15.0),
                            (1, "compute", 0.0, 20.0)], 20.0)
    assert rep.reconcile() == []


# ======================================================================
# The assembled report on a real run.
# ======================================================================

def test_inspect_report_reconciles_on_real_run():
    rep = InspectReport.build(run("jacobi", nprocs=4, opt="aggr",
                                  page_size=1024, telemetry=True))
    assert rep.reconcile() == []
    text = rep.render()
    assert "Hot pages" in text
    assert "Lock contention" in text
    assert "Critical path" in text
    assert "reconcile" in text
    d = rep.as_dict()
    json.dumps(d)                      # must be JSON-serializable
    assert d["reconcile"] == []
    assert d["pages"]["totals"]["read_faults"] \
        == rep.outcome.stats.read_faults


def test_inspect_report_requires_telemetry():
    out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                      nprocs=2, page_size=1024))
    with pytest.raises(Exception):
        InspectReport.build(out)


# ======================================================================
# Baselines.
# ======================================================================

SPEC = RunSpec(app="jacobi", mode="dsm", opt="aggr", dataset="tiny",
               nprocs=4, page_size=1024)


def test_baseline_measure_is_deterministic():
    entry, verdict = baseline.measure(SPEC)
    assert baseline.measure(SPEC) == (entry, verdict)
    assert verdict.problems == []


def test_baseline_perturbed_count_fails():
    entry, _ = baseline.measure(SPEC)
    perturbed = json.loads(json.dumps(entry))   # deep copy
    perturbed["counts"]["diffs_created"] += 1
    problems = compare_entry("jacobi/dsm/aggr", entry, perturbed)
    assert len(problems) == 1
    assert "diffs_created" in problems[0]
    # And a perturbed message count likewise.
    perturbed2 = json.loads(json.dumps(entry))
    perturbed2["messages"] -= 1
    assert compare_entry("jacobi/dsm/aggr", entry, perturbed2)


def test_baseline_time_tolerance():
    entry, _ = baseline.measure(SPEC)
    close = json.loads(json.dumps(entry))
    close["time_us"] *= 1 + 1e-9                # inside rtol
    assert compare_entry("k", entry, close) == []
    far = json.loads(json.dumps(entry))
    far["time_us"] *= 1.01                      # outside rtol
    assert compare_entry("k", entry, far)


def test_baseline_check_roundtrip(tmp_path):
    path = tmp_path / "protocol.json"
    matrix = (SPEC,)
    res = baseline.check(path=path, matrix=matrix, update=True)
    assert res.updated and res.ok
    res = baseline.check(path=path, matrix=matrix)
    assert res.ok, res.problems
    # Corrupt one stored count: the check must fail.
    data = json.loads(path.read_text())
    data["jacobi/dsm/aggr"]["counts"]["read_faults"] += 5
    path.write_text(json.dumps(data))
    res = baseline.check(path=path, matrix=matrix)
    assert not res.ok
    assert any("read_faults" in p for p in res.problems)


def test_baseline_check_missing_file(tmp_path):
    res = baseline.check(path=tmp_path / "nope.json",
                         matrix=(SPEC,))
    assert not res.ok
    assert "update-baselines" in res.problems[0]


def test_checked_in_baselines_match_current_protocol():
    """The repo's committed baselines must describe the current code."""
    stored = baseline.load()
    key = "jacobi/dsm/aggr"
    measured, _ = baseline.measure(RunSpec(**stored[key]["config"]))
    assert measured["config"] == stored[key]["config"]
    assert compare_entry(key, stored[key], measured) == []


def test_stored_dsm_counts_are_exactly_the_recorded_fields():
    """``check --update-baselines`` is a fixpoint of the committed file:
    every DSM entry stores the counters a run records, no more, no
    fewer (a missing one would be read as 0 and rewritten)."""
    from repro.harness.outcome import COUNT_FIELDS

    stored = baseline.load()
    wrong = [key for key, entry in stored.items()
             if entry["config"]["mode"] == "dsm"
             and sorted(entry["counts"]) != sorted(COUNT_FIELDS)]
    assert wrong == []
