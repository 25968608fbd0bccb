"""Tests for the redesigned RunSpec/run() facade and unified outcomes."""

import pytest

import repro
from repro.apps import get_app
from repro.errors import ReproError
from repro.harness import RunOutcome, RunSpec, run


class TestRunSpecApi:
    def test_keyword_shorthand(self):
        out = run("jacobi", mode="seq", dataset="tiny")
        assert out.mode == "seq" and out.time > 0

    def test_overrides_on_spec(self):
        spec = RunSpec(app="jacobi", mode="seq")
        out = run(spec, mode="mp", nprocs=2)
        assert out.mode == "mp"
        assert spec.mode == "seq"          # original spec untouched

    def test_program_app(self):
        app = get_app("jacobi")
        prog = app.program("tiny", 2)
        out = run(RunSpec(app=prog, mode="dsm", nprocs=2,
                          page_size=1024))
        assert out.mode == "dsm" and out.stats is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(app="jacobi", mode="cuda"))

    def test_unknown_opt_level_rejected(self):
        with pytest.raises(ReproError):
            run(RunSpec(app="jacobi", mode="dsm", opt="warp9"))

    def test_mp_needs_app_spec(self):
        prog = get_app("jacobi").program("tiny", 2)
        with pytest.raises(ReproError):
            run(RunSpec(app=prog, mode="mp", nprocs=2))

    def test_explicit_params_override_dataset(self):
        spec = RunSpec(app="jacobi", params={"n": 16, "iters": 2})
        assert spec.resolve_params() == {"n": 16, "iters": 2}

    def test_telemetry_true_makes_fresh_instance(self):
        out = run(RunSpec(app="jacobi", mode="seq", telemetry=True))
        assert out.telemetry is not None
        assert out.telemetry.phase_profile()          # something traced

    def test_telemetry_default_off(self):
        out = run(RunSpec(app="jacobi", mode="seq"))
        assert out.telemetry is None


class TestOutcomeProtocol:
    def test_all_modes_share_protocol(self):
        outs = [run("jacobi", mode=m, dataset="tiny", nprocs=2,
                    page_size=1024)
                for m in ("seq", "dsm", "xhpf", "mp")]
        for out in outs:
            assert isinstance(out, RunOutcome)
            assert out.time > 0
            assert isinstance(out.arrays, dict)
            assert out.messages >= 0 and out.data_bytes >= 0
            assert out.telemetry is None
        assert [o.mode for o in outs] == ["seq", "dsm", "xhpf", "mp"]

    def test_seq_has_no_network_traffic(self):
        out = run("jacobi", mode="seq")
        assert out.messages == 0 and out.data_bytes == 0
        assert out.stats is None

    def test_top_level_exports(self):
        for name in ("RunSpec", "run", "RunOutcome", "run_seq",
                     "Telemetry", "EventBus", "SpanLog", "chrome_trace",
                     "write_chrome_trace"):
            assert hasattr(repro, name), name
        # One front door: the mode-specific helpers are gone.
        for name in ("run_dsm", "run_mp", "run_xhpf"):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.harness, name), name
