"""Recovery harness end-to-end: crashes are invisible except in cost."""

import json
from functools import lru_cache

import numpy as np
import pytest

from repro.faults import FaultPlan, NodeCrash
from repro.harness import RunSpec, recover, run


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


# ---------------------------------------------------------------------------
# The crash grid.  The mined sweep places five crashes per run where the
# trace says something interesting happens; this grid does not trust the
# miner: on ``is``, the one app with lock traffic, every processor
# crashes at every twentieth of the run.  Beside it, the ids outside
# the grid (a ten times longer reboot, two more opt levels) on which
# reconstructing lock state from survivors' evidence, instead of
# restoring a streamed copy, diverged or deadlocked.
# ---------------------------------------------------------------------------

GRID = [(opt, pid, k, 2000.0) for opt in ("base", "merge")
        for pid in range(4) for k in range(1, 20)]
PINNED = ([("base", 1, 3, 20000.0), ("base", 1, 8, 20000.0),
           ("base", 2, 9, 20000.0)]
          + [(opt, pid, k, 2000.0) for opt in ("aggr", "aggr+cons")
             for pid, k in ((1, 3), (2, 3), (3, 15))])

def _is_spec(opt):
    return RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                   page_size=1024, opt=opt)


@lru_cache(maxsize=None)
def _is_base(opt):
    return run(_is_spec(opt))


@pytest.mark.parametrize(
    "opt,pid,k,reboot_us", GRID + PINNED,
    ids=[f"{opt}-P{pid}-{k}/20-{reboot_us:.0f}us"
         for opt, pid, k, reboot_us in GRID + PINNED])
def test_crash_grid_is_bit_identical(opt, pid, k, reboot_us):
    base = _is_base(opt)
    plan = FaultPlan(crashes=(NodeCrash(pid, base.time * k / 20,
                                        reboot_us=reboot_us),))
    out = run(_is_spec(opt), faults=plan)
    for name in base.arrays:
        assert np.array_equal(base.arrays[name], out.arrays[name]), name


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
