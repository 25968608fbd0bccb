"""Chaos harness end-to-end: faulted runs are invisible except in cost."""

import json

import pytest

from repro.harness import chaos


@pytest.mark.parametrize("app,opt", [("jacobi", "base"), ("is", "aggr")])
def test_heavy_chaos_case_is_bit_identical(app, opt):
    case = chaos.run_case(app, opt, "heavy", seed=1)
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.violations == []
    assert case.faults_injected > 0          # the plan actually fired
    assert case.acks > 0
    assert case.added_time > 0
    if app == "jacobi":
        # Barrier-only app: the protocol sends exactly the same data
        # messages, so the entire overhead is retransmits + acks.  (A
        # lock-based app like 'is' may legally reshape its lock-forward
        # chains under fault-induced timing shifts.)
        assert case.extra_messages == case.retransmits + case.acks


def test_case_seed_reproducibility():
    a = chaos.run_case("jacobi", "aggr", "moderate", seed=9)
    b = chaos.run_case("jacobi", "aggr", "moderate", seed=9)
    assert a.as_dict() == b.as_dict()


def test_sweep_filters_inapplicable_levels():
    # 'push' does not apply to is; asking for it yields no is cases.
    cases = chaos.sweep(apps=["is"], opts=["push"],
                        intensities=["light"])
    assert cases == []


def test_render_reports_failures():
    case = chaos.ChaosCase(app="x", opt="base", intensity="light",
                           seed=0, identical=False)
    text = chaos.render_chaos([case])
    assert "DIVERGED" in text and "CHAOS FAIL" in text


def test_chaos_cli_end_to_end(capsys, tmp_path):
    from repro.__main__ import main
    json_path = tmp_path / "chaos.json"
    rc = main(["chaos", "--apps", "jacobi", "--opts", "base",
               "--intensity", "heavy", "--seed", "3",
               "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CHAOS OK" in out
    data = json.loads(json_path.read_text())
    assert data["seed"] == 3
    assert data["cases"][0]["ok"] is True
    assert data["cases"][0]["intensity"] == "heavy"
