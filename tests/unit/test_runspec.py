"""Tests for the redesigned RunSpec/run() facade and unified outcomes."""

import numpy as np
import pytest

import repro
from repro.apps import get_app
from repro.errors import ReproError
from repro.harness import (RunOutcome, RunSpec, run, run_dsm, run_mp,
                           run_seq, run_xhpf)
from repro.harness.modes import OPT_LEVELS


class TestParityWithLegacyHelpers:
    """run(RunSpec(...)) reproduces each legacy helper exactly."""

    def test_seq_parity(self):
        app = get_app("jacobi")
        legacy = run_seq(app.program("tiny", 1))
        new = run(RunSpec(app="jacobi", mode="seq", dataset="tiny"))
        assert new.time == legacy.time
        for name in legacy.arrays:
            np.testing.assert_array_equal(new.arrays[name],
                                          legacy.arrays[name])

    @pytest.mark.parametrize("opt_name", ["base", "aggr"])
    def test_dsm_parity(self, opt_name):
        app = get_app("jacobi")
        legacy = run_dsm(app.program("tiny", 4), nprocs=4,
                         opt=OPT_LEVELS[opt_name], page_size=1024)
        new = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                          nprocs=4, opt=opt_name, page_size=1024))
        assert new.time == legacy.time
        assert new.stats == legacy.run.stats
        assert new.messages == legacy.run.messages
        for name in legacy.arrays:
            np.testing.assert_array_equal(new.arrays[name],
                                          legacy.arrays[name])

    def test_mp_parity(self):
        app = get_app("jacobi")
        legacy = run_mp(app, dict(app.dataset("tiny").params), nprocs=4)
        new = run(RunSpec(app="jacobi", mode="mp", dataset="tiny",
                          nprocs=4))
        assert new.time == legacy.time
        assert new.messages == legacy.run.messages

    def test_xhpf_parity(self):
        app = get_app("jacobi")
        legacy = run_xhpf(app.program("tiny", 4), nprocs=4)
        new = run(RunSpec(app="jacobi", mode="xhpf", dataset="tiny",
                          nprocs=4))
        assert new.time == legacy.time
        assert new.messages == legacy.messages


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

    def test_dsm_outcome_delegates_to_run(self):
        out = run("jacobi", mode="dsm", nprocs=2, page_size=1024)
        assert out.time == out.run.time
        assert out.stats is out.run.stats
        assert out.per_proc is out.run.per_proc
        assert out.net is out.run.net

    def test_top_level_exports(self):
        for name in ("RunSpec", "run", "RunOutcome", "run_seq",
                     "run_dsm", "run_mp", "run_xhpf", "Telemetry",
                     "EventBus", "SpanLog", "chrome_trace",
                     "write_chrome_trace"):
            assert hasattr(repro, name), name

    def test_run_xhpf_signature_dropped_page_size(self):
        # The old signature silently accepted-and-ignored page_size.
        import inspect
        params = inspect.signature(run_xhpf).parameters
        assert "page_size" not in params
        assert "telemetry" in params
