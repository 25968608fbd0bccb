"""Recovery harness end-to-end: crashes are invisible except in cost."""

import json

import pytest

from repro.harness import recover


@pytest.mark.smoke
@pytest.mark.parametrize("app,opt,schedule", [
    ("jacobi", "base", "manager"),       # barrier master crashes
    ("jacobi", "aggr+cons", "early"),    # consistency elimination
    ("is", "aggr", "lock"),              # crash with the token held
    ("shallow", "merge", "barrier"),     # crash during a barrier wait
])
def test_crash_case_is_bit_identical(app, opt, schedule):
    case = recover.run_case(app, opt, schedule)
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.realized            # the crash actually fired
    assert case.violations == []    # inspector reconciles exactly
    assert case.findings == []      # sanitizer stays clean
    assert case.log_bytes > 0       # the victim logged to its backup
    assert case.state_bytes > 0     # survivors shipped state back


def test_schedule_mining_covers_lock_apps_only():
    from repro.harness.spec import RunSpec, run
    base = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                       nprocs=4, opt="base"), telemetry=True)
    names = [s.name for s in recover.mine_schedules(base, 4)]
    assert "lock" not in names      # barrier-only app
    assert {"early", "mid", "manager"} <= set(names)
    with pytest.raises(Exception):
        recover.run_case("jacobi", "base", "lock", base=base)


def test_sweep_reduced_matrix():
    cases = recover.sweep(apps=["is"], opts=["aggr"],
                          schedules=["manager", "lock"], inspect=False)
    assert len(cases) == 2
    assert all(c.identical for c in cases), \
        [c.as_dict() for c in cases]


def test_render_reports_failures():
    case = recover.RecoverCase(app="x", opt="base", schedule="early",
                               identical=False)
    text = recover.render_recover([case])
    assert "DIVERGED" in text and "RECOVER FAIL" in text


@pytest.mark.smoke
def test_recover_cli_end_to_end(capsys, tmp_path):
    from repro.__main__ import main
    json_path = tmp_path / "recover.json"
    rc = main(["recover", "--apps", "jacobi", "--opts", "base",
               "--schedules", "early", "--json", str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RECOVER OK" in out
    data = json.loads(json_path.read_text())
    assert data["cases"] and all(c["ok"] for c in data["cases"])
    assert data["cases"][0]["realized"]


@pytest.mark.parametrize("t,rc,verdict", [
    (5000.0, 0, "RECOVER OK"),
    # A crash scheduled after the run ends never fires: nothing was
    # recovered, so the case must not be reported as recovered.
    (9e8, 1, "UNREALIZED"),
], ids=["fires", "never-fires"])
def test_recover_cli_with_declarative_plan(capsys, tmp_path, t, rc,
                                           verdict):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"crashes": [{"pid": 2, "t": t, "reboot_us": 2000.0}]}))
    from repro.__main__ import main
    assert main(["recover", "--apps", "jacobi", "--opts", "aggr",
                 "--plan", str(plan_path)]) == rc
    out = capsys.readouterr().out
    assert verdict in out
    assert ("RECOVER FAIL" in out) == bool(rc)


def test_chaos_cli_with_declarative_plan(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"seed": 11, "links": {"0->1": {"drop": 0.15}}}))
    from repro.__main__ import main
    rc = main(["chaos", "--apps", "jacobi", "--opts", "base",
               "--plan", str(plan_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CHAOS OK" in out and "plan" in out
