"""Unit tests for the unified telemetry subsystem."""

import json

import pytest

from repro.apps import get_app
from repro.harness import (RunSpec, run, run_dsm, run_mp, run_seq,
                           run_xhpf)
from repro.telemetry import (Event, EventBus, SpanLog, Telemetry,
                             chrome_trace, events_jsonl)
from repro.telemetry.export import TRACE_PID
from repro.tm.stats import TmStats


def traced_jacobi(opt_name="aggr", nprocs=4, **kw):
    app = get_app("jacobi")
    from repro.harness.modes import OPT_LEVELS
    tel = Telemetry()
    out = run_dsm(app.program("tiny", nprocs), nprocs=nprocs,
                  opt=OPT_LEVELS[opt_name], page_size=1024,
                  telemetry=tel, **kw)
    return out, tel


# ----------------------------------------------------------------------
# EventBus basics.
# ----------------------------------------------------------------------

class TestEventBus:
    def test_emit_and_len(self):
        bus = EventBus()
        bus.emit(1.0, 0, "tm.read_fault", 0, {"page": 3})
        bus.emit(2.0, 1, "tm.barrier", 1, None)
        assert len(bus) == 2
        assert bus.events[0].kind == "tm.read_fault"
        assert bus.events[0].args["page"] == 3

    def test_disabled_bus_records_nothing(self):
        bus = EventBus(enabled=False)
        bus.emit(1.0, 0, "tm.read_fault", 0, None)
        assert len(bus) == 0

    def test_enable_disable_toggles(self):
        bus = EventBus()
        bus.emit(1.0, 0, "a", 0, None)
        bus.disable()
        bus.emit(2.0, 0, "b", 0, None)
        bus.enable()
        bus.emit(3.0, 0, "c", 0, None)
        assert [e.kind for e in bus.events] == ["a", "c"]

    def test_counts_and_filter(self):
        bus = EventBus()
        for pid in (0, 1, 0):
            bus.emit(float(pid), pid, "tm.twin", 0, None)
        bus.emit(5.0, 0, "net.msg", 0, None)
        assert bus.counts() == {"tm.twin": 3, "net.msg": 1}
        assert len(bus.filter(kinds=("tm.twin",))) == 3
        assert len(bus.filter(pid=0)) == 3
        assert len(bus.filter(prefix="net.")) == 1

    def test_subscriber_sees_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(1.0, 0, "x", 0, None)
        assert len(seen) == 1 and isinstance(seen[0], Event)

    def test_telemetry_off_leaves_no_trace(self):
        app = get_app("jacobi")
        out = run_dsm(app.program("tiny", 2), nprocs=2, page_size=1024)
        assert out.telemetry is None


# ----------------------------------------------------------------------
# metrics_total is the run's own TmStats/NetStats, rendered flat.
# ----------------------------------------------------------------------

def flat(net, stats=None):
    """The documented rendering, written out independently."""
    want = {"net.messages": net.messages, "net.bytes": net.bytes}
    want.update((f"net.msgs.{k}", n) for k, n in net.by_kind.items())
    want.update((f"net.bytes.{k}", n)
                for k, n in net.bytes_by_kind.items())
    if stats is not None:
        want.update((f"tm.{k}", v) for k, v in stats.as_dict().items())
    return want


#: ``metrics_total`` of ``python -m repro inspect jacobi --mode <mode>``
#: as the live per-site mirror (deleted) produced it: every key it
#: had keeps its value.
MIRRORED = {
    "dsm": {
        "net.bytes": 24481, "net.bytes.barrier_arrive": 1824,
        "net.bytes.barrier_depart": 3168, "net.bytes.diff_req": 1152,
        "net.bytes.diff_resp": 18337, "net.messages": 96,
        "net.msgs.barrier_arrive": 24, "net.msgs.barrier_depart": 24,
        "net.msgs.diff_req": 24, "net.msgs.diff_resp": 24,
        "tm.barriers": 32, "tm.diff_bytes_applied": 7857,
        "tm.diffs_applied": 24, "tm.diffs_created": 102,
        "tm.invalidations": 114, "tm.protect_ops": 90,
        "tm.read_faults": 12, "tm.t_barrier_wait": 14594.308000000008,
        "tm.t_compute": 2084.0240000000003, "tm.t_diff": 4214.154,
        "tm.t_fetch_wait": 4988.04628571429, "tm.t_lock_wait": 0.0,
        "tm.t_protect": 2194.7050000000004, "tm.t_twin": 3840.0,
        "tm.twins_created": 128, "tm.validates": 28,
        "tm.write_faults": 32},
    "mp": {"net.bytes": 13056, "net.bytes.mp": 13056,
           "net.messages": 24, "net.msgs.mp": 24},
    "xhpf": {"net.bytes": 13632, "net.bytes.mp": 13632,
             "net.messages": 24, "net.msgs.mp": 24},
}


class TestMetricsEquivalence:
    @pytest.mark.parametrize("mode", sorted(MIRRORED))
    def test_metrics_total_is_the_runs_own_counters(self, mode):
        out = run(RunSpec(app="jacobi", mode=mode, dataset="tiny",
                          nprocs=4, page_size=1024, telemetry=True,
                          opt="aggr" if mode == "dsm" else None))
        total = out.telemetry.summary()["metrics_total"]
        assert total == flat(out.net, out.stats)
        assert list(total) == sorted(total)
        assert MIRRORED[mode].items() <= total.items()
        other = out.telemetry.chrome_trace()["otherData"]
        assert other["metrics_total"] == total

    @pytest.mark.parametrize("opt_name", ["base", "aggr", "merge", "push"])
    def test_tm_counters_match_legacy_totals(self, opt_name):
        out, tel = traced_jacobi(opt_name)
        legacy = TmStats.total(out.run.per_proc)
        total = tel.metrics_total
        for name, value in legacy.as_dict().items():
            assert total["tm." + name] == value, name

    def test_net_counters_match_netstats(self):
        out, tel = traced_jacobi()
        total = tel.metrics_total
        assert total["net.messages"] == out.run.net.messages
        assert total["net.bytes"] == out.run.net.bytes

    def test_event_counts_match_counters(self):
        out, tel = traced_jacobi()
        counts = tel.counts()
        assert counts["tm.read_fault"] == out.stats.read_faults
        assert counts["tm.write_fault"] == out.stats.write_faults
        assert counts["tm.barrier"] == out.stats.barriers
        assert counts["tm.validate"] == out.stats.validates

    def test_time_gauges_ingested(self):
        out, tel = traced_jacobi()
        legacy = TmStats.total(out.run.per_proc)
        assert tel.metrics_total["tm.t_compute"] == \
            pytest.approx(legacy.t_compute)

    def test_seq_run_has_no_counters_to_render(self):
        # No TmStats, no NetStats: the barrier count stays where the
        # run itself keeps it, in the event log.
        tel = Telemetry()
        run_seq(get_app("jacobi").program("tiny", 1), telemetry=tel)
        assert tel.metrics_total == {}
        assert tel.counts()["tm.barrier"] > 0


# ----------------------------------------------------------------------
# Spans / phase profiling.
# ----------------------------------------------------------------------

class TestSpans:
    def test_span_log_by_phase(self):
        log = SpanLog()
        log.record(0, "compute", 0.0, 5.0, 0)
        log.record(0, "compute", 10.0, 12.0, 1)
        log.record(0, "wait.barrier", 5.0, 10.0, 1)
        prof = log.by_phase(0)
        assert prof["compute"] == pytest.approx(7.0)
        assert prof["wait.barrier"] == pytest.approx(5.0)

    def test_dsm_run_produces_phase_spans(self):
        out, tel = traced_jacobi()
        prof = tel.phase_profile()
        assert prof.get("compute", 0) > 0
        assert prof.get("wait.barrier", 0) > 0
        assert prof.get("cpu.twin", 0) > 0
        assert prof.get("cpu.diff", 0) > 0

    def test_epochs_advance_with_barriers(self):
        out, tel = traced_jacobi()
        per_pid_barriers = out.run.per_proc[0].barriers
        assert tel.epoch(0) == per_pid_barriers
        by_epoch = tel.phase_profile(pid=0, by_epoch=True)
        assert len({e for (e, _name) in by_epoch}) > 1

    def test_compute_spans_cover_t_compute(self):
        # Compute spans measure wall occupancy, which may exceed the
        # charged cost when interrupt handlers steal CPU mid-advance.
        out, tel = traced_jacobi()
        legacy = TmStats.total(out.run.per_proc)
        total_compute = sum(
            tel.phase_profile(pid).get("compute", 0)
            for pid in tel.pids())
        assert total_compute >= legacy.t_compute - 1e-6


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------

class TestExport:
    def test_chrome_trace_schema(self):
        out, tel = traced_jacobi()
        doc = chrome_trace(tel)
        # Round-trip: must be valid JSON.
        doc = json.loads(json.dumps(doc))
        evs = doc["traceEvents"]
        assert isinstance(evs, list) and evs
        for e in evs:
            assert e["ph"] in ("M", "X", "i")
            assert e["pid"] == TRACE_PID
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "ts" in e
            if e["ph"] == "M":
                assert e["name"] in ("process_name", "thread_name",
                                     "thread_sort_index")

    def test_one_track_per_processor(self):
        out, tel = traced_jacobi(nprocs=4)
        doc = chrome_trace(tel)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"P0", "P1", "P2", "P3"}
        span_tids = {e["tid"] for e in doc["traceEvents"]
                     if e["ph"] == "X"}
        assert span_tids == {0, 1, 2, 3}

    def test_write_chrome_trace(self, tmp_path):
        out, tel = traced_jacobi()
        path = tmp_path / "trace.json"
        tel.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_events_jsonl_lines(self):
        out, tel = traced_jacobi()
        lines = events_jsonl(tel).strip().splitlines()
        assert len(lines) == len(tel.bus) + len(tel.spans)
        recs = [json.loads(ln) for ln in lines]
        assert {r["rec"] for r in recs} == {"event", "span"}
        # Sorted by timestamp.
        ts = [r["ts"] for r in recs]
        assert ts == sorted(ts)


# ----------------------------------------------------------------------
# Telemetry in the other modes.
# ----------------------------------------------------------------------

class TestOtherModes:
    def test_seq_telemetry(self):
        app = get_app("jacobi")
        tel = Telemetry()
        out = run_seq(app.program("tiny", 1), telemetry=tel)
        assert out.telemetry is tel
        assert tel.phase_profile(0).get("compute", 0) == \
            pytest.approx(out.time)

    def test_mp_telemetry(self):
        app = get_app("jacobi")
        tel = Telemetry()
        out = run_mp(app, dict(app.dataset("tiny").params), nprocs=4,
                     telemetry=tel)
        total = tel.metrics_total
        assert total["net.messages"] == out.run.net.messages
        assert total["net.bytes"] == out.run.net.bytes

    def test_xhpf_telemetry(self):
        app = get_app("jacobi")
        tel = Telemetry()
        out = run_xhpf(app.program("tiny", 4), nprocs=4, telemetry=tel)
        assert out.telemetry is tel
        assert tel.metrics_total["net.messages"] == out.net.messages
        assert tel.phase_profile().get("compute", 0) > 0

    def test_untraced_runs_share_no_state(self):
        # Two plain runs must not accumulate into each other.
        app = get_app("jacobi")
        tel1, tel2 = Telemetry(), Telemetry()
        out1 = run_dsm(app.program("tiny", 2), nprocs=2,
                       page_size=1024, telemetry=tel1)
        out2 = run_dsm(app.program("tiny", 2), nprocs=2,
                       page_size=1024, telemetry=tel2)
        assert tel1.metrics_total["tm.read_faults"] == \
            tel2.metrics_total["tm.read_faults"] == \
            out1.stats.read_faults == out2.stats.read_faults
