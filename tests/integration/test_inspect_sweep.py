"""Inspector invariants across every app, mode, and opt level.

For each benchmark application at every applicable optimization level
(plus the mp mode), a traced tiny run must yield

* page timelines with zero illegal transitions,
* reconstruction totals equal to the run's own ``TmStats``,
* wait-span totals equal to the ``t_*_wait`` stat accumulators,
* a critical path whose segments tile end-to-end simulated time.

This is the deterministic, all-opt-levels complement to the randomized
schedules in ``tests/property/test_protocol_random.py``.
"""

import pytest

from repro.apps import all_apps, get_app
from repro.harness import RunSpec, run
from repro.harness.modes import applicable_levels
from repro.inspect import InspectReport

CASES = [(app, "dsm", opt)
         for app in sorted(all_apps())
         for opt in sorted(applicable_levels(get_app(app)))]
CASES += [(app, "mp", None) for app in sorted(all_apps())]


@pytest.mark.parametrize("app,mode,opt", CASES,
                         ids=[f"{a}-{m}-{o}" for a, m, o in CASES])
def test_inspection_reconciles(app, mode, opt):
    out = run(RunSpec(app=app, mode=mode, dataset="tiny", nprocs=4,
                      opt=opt, page_size=1024, telemetry=True))
    rep = InspectReport.build(out, title=f"{app}/{mode}/{opt}")
    assert rep.reconcile() == []
    # The report renders without error and names every section.
    text = rep.render()
    assert "Critical path" in text
    assert "Lock contention" in text


def test_inspect_cli_end_to_end(capsys, tmp_path):
    from repro.__main__ import main
    json_path = tmp_path / "report.json"
    rc = main(["inspect", "jacobi", "--mode", "dsm", "--opt", "aggr",
               "--json", str(json_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Hot pages" in text
    assert "Critical path" in text
    assert "reconcile" in text
    assert json_path.exists()


def test_check_cli_against_committed_baselines(capsys):
    """`python -m repro check` passes on the checked-in baselines: the
    one exact-count gate, which CI runs only here.  After an intentional
    protocol change, refresh them with ``python -m repro check
    --update-baselines`` (``--protocol <backend>`` touches one backend
    only) and commit the diff."""
    from repro.__main__ import main
    assert main(["check"]) == 0
    assert "OK" in capsys.readouterr().out
