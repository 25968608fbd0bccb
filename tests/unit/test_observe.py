"""Unit tests for the wall-clock observatory (``repro.observe``)."""

import pytest

from repro.errors import ReproError
from repro.harness import RunSpec, run
from repro.harness.schema import GENERATED_BY, envelope, schema_id
from repro.observe import WallProfiler
from repro.observe.profiler import _classify


# ----------------------------------------------------------------------
# Dispatch-action classification.
# ----------------------------------------------------------------------

class TestClassify:
    def test_exact_process_names(self):
        # A wake action only names the process to resume: dispatch cost.
        # "compute" is what the process thread reports (resume -> block).
        assert _classify("Process._switch_in") == "engine"
        assert _classify("Process._advance_wake") == "engine"
        assert _classify("Process._wait_wake") == "engine"
        assert _classify("Process.wake") == "engine"

    def test_subsystem_fragments(self):
        assert _classify("ReliableTransport._on_timer") == "net"
        assert _classify("Network._deliver") == "net"
        assert _classify("Injector._fire") == "faults"
        # The absence manager and its detector's beat timers share one
        # bucket (both class names carry the fragment).
        assert _classify("AbsenceManager._reenter") == "absence"
        assert _classify(
            "AbsenceDetector.start.<locals>.<lambda>") == "absence"

    def test_process_steps_are_net(self):
        # Sends and receives a blocked process's step runs in the loop.
        assert _classify("Endpoint._step") == "net"

    def test_lambda_inside_subsystem_classifies_to_it(self):
        assert _classify("Transport.send.<locals>.<lambda>") == "net"

    def test_unknown_goes_to_engine(self):
        assert _classify("Barrier._release") == "engine"


class TestWallProfiler:
    def test_account_uses_qualname_and_caches(self):
        prof = WallProfiler()

        def fn():
            pass
        fn.__qualname__ = "Network._deliver"
        prof.account(fn, 0.25)
        prof.account(fn, 0.25)
        assert prof.wall == {"net": 0.5}
        assert prof._cache == {"Network._deliver": "net"}

    def test_slice_is_compute_exclusive_of_its_leaves(self):
        prof = WallProfiler()
        prof.resume()
        prof.leaf("tm.diff", 10.0)      # far longer than the slice
        prof.block()
        assert prof.wall["compute"] == pytest.approx(-10.0, abs=0.1)
        prof.resume()
        prof.block()
        assert prof.wall["compute"] == pytest.approx(-10.0, abs=0.1)

    def test_leaf_time_counts_toward_leaf_total(self):
        prof = WallProfiler()
        prof.leaf("tm.diff", 0.2)
        prof.leaf("tm.serve", 0.1)
        assert prof.leaf_s == pytest.approx(0.3)
        assert prof.wall["tm.diff"] == pytest.approx(0.2)

    def test_access_leaf_discards_faulted_sample(self):
        prof = WallProfiler()
        prof.access_leaf(0.1)     # fault-free: timed
        prof.access_leaf(None)    # faulted: counted, not timed
        assert prof.n_accesses == 2
        assert prof.n_access_timed == 1
        assert prof.wall["tm.access"] == pytest.approx(0.1)

    def test_attribution_puts_loop_slack_under_engine(self):
        prof = WallProfiler()
        prof.run_s = 1.0
        prof.wall = {"compute": 0.6, "net": 0.1}
        att = prof.attribution()
        assert att["engine"] == pytest.approx(0.3)
        assert sum(att.values()) == pytest.approx(prof.run_s)

    def test_rates_are_zero_before_any_run(self):
        prof = WallProfiler()
        assert prof.events_per_sec() == 0.0
        assert prof.accesses_per_sec() == 0.0

    def test_as_dict_percentages_sum_to_100(self):
        prof = WallProfiler()
        prof.run_s = 2.0
        prof.n_events = 100
        prof.wall = {"compute": 1.0, "net": 0.5}
        d = prof.as_dict()
        assert d["events_per_sec"] == pytest.approx(50.0)
        assert sum(d["attribution_pct"].values()) == pytest.approx(
            100.0, abs=0.1)

    def test_render_mentions_throughput(self):
        prof = WallProfiler()
        prof.run_s = 1.0
        prof.n_events = 10
        assert "events" in prof.render()

    def test_handoffs_are_counted_deterministically(self):
        profs = [run(RunSpec(app="is", dataset="tiny", nprocs=4,
                             opt="base", profile=True)).profile
                 for _ in range(2)]
        counts = [prof.as_dict()["handoffs"] for prof in profs]
        assert counts[0] == counts[1] > 0
        assert f"{counts[0]} thread hand-offs" in profs[0].render()


# ----------------------------------------------------------------------
# Versioned JSON schema envelope (satellite: unified --json schema).
# ----------------------------------------------------------------------

class TestSchemaEnvelope:
    def test_envelope_shape(self):
        p = envelope("sanitize", dataset="tiny", corpus=[])
        assert p["schema"] == "repro-sanitize/1"
        assert p["generated_by"] == GENERATED_BY
        assert p["dataset"] == "tiny"

    def test_schema_id_versions(self):
        assert schema_id("sanitize") == "repro-sanitize/1"
        assert schema_id("chaos", 3) == "repro-chaos/3"


# ----------------------------------------------------------------------
# EventBus fast path (satellite: early-out before packing).
# ----------------------------------------------------------------------

class NoIter:
    """Pages stand-in that explodes if anything tries to pack it."""

    def __iter__(self):
        raise AssertionError("pages were packed on a disabled path")


class TestTelemetryFastPath:
    def test_disabled_bus_allocates_no_event(self, monkeypatch):
        import repro.telemetry.events as events_mod
        from repro.telemetry.events import EventBus

        def boom(*a, **kw):
            raise AssertionError("Event allocated on a disabled bus")
        bus = EventBus(enabled=False)
        monkeypatch.setattr(events_mod, "Event", boom)
        bus.emit(1.0, 0, "tm.read_fault", 0, {"page": 1})
        assert len(bus) == 0

    def test_access_skips_packing_when_access_events_off(self):
        from repro.telemetry import Telemetry
        tel = Telemetry(events=True, access_events=False)
        tel.access(0, "rt.read", "a", ((0, 3, 1),), NoIter())
        assert len(tel.bus) == 0

    def test_access_skips_packing_when_bus_disabled(self):
        from repro.telemetry import Telemetry
        tel = Telemetry(events=False, access_events=True)
        tel.access(0, "rt.read", "a", ((0, 3, 1),), NoIter())
        assert len(tel.bus) == 0

    def test_access_packs_pages_when_enabled(self):
        from repro.telemetry import Telemetry
        tel = Telemetry(events=True, access_events=True)
        tel.access(0, "rt.read", "a", ((0, 3, 1),), [1, 2])
        assert tel.bus.events[0].args["pages"] == (1, 2)


# ----------------------------------------------------------------------
# The observatory on a real (tiny) run.
# ----------------------------------------------------------------------

class TestProfiledRun:
    def test_profiled_jacobi_reports_throughput(self):
        out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                          nprocs=4, page_size=1024, profile=True))
        prof = out.profile
        assert prof is not None
        assert prof.n_events > 0
        assert prof.n_accesses > 0
        assert prof.n_stmts > 0
        assert prof.n_messages > 0
        assert prof.run_s > 0
        att = prof.attribution()
        assert "compute" in att
        assert sum(att.values()) == pytest.approx(prof.run_s, rel=1e-6)

    def test_explicit_profiler_instance_is_returned(self):
        prof = WallProfiler()
        out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                          nprocs=4, page_size=1024, profile=prof))
        assert out.profile is prof

    def test_unprofiled_run_has_no_profile(self):
        out = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                          nprocs=4, page_size=1024))
        assert out.profile is None

    def test_seq_mode_rejects_profile(self):
        with pytest.raises(ReproError, match="seq"):
            run(RunSpec(app="jacobi", mode="seq", dataset="tiny",
                        profile=True))
