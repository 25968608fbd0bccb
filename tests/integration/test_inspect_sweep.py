"""The one gate, per cell, and proof that each of its oracles bites.

Every unperturbed cell of the run matrix runs once, traced, and must
satisfy every oracle ``repro check`` asks (:func:`repro.inspect.
baseline.measure`, then :func:`~repro.inspect.baseline.judge`): its
record equals the committed baseline entry, its arrays equal the numpy
reference, the inspector's page timelines have no illegal transition and
its totals, wait spans and critical path reconcile with the run's own
counters, and on the DSM the sanitizer finds no race or hint violation.
This is the deterministic, all-cells complement to the randomized
schedules in ``tests/property/test_protocol_random.py``. Each cell's
judged run is shared (:mod:`tests.integration.judged`): the inspector
sweep over every app and level and the CLI test below read it, not a
rerun.
"""

import pytest

from repro.apps import get_app
from repro.compiler.transform import hint_mutation
from repro.harness import RunSpec
from repro.harness.modes import SIZING, run_matrix
from repro.inspect import baseline
from repro.sanitizer import matrix
from repro.tm.system import TmSystem

from .judged import cell, judged, measured

CASES = [(s.app, s.mode, s.opt)
         for s in run_matrix(modes=("dsm", "mp"), protocols=[None],
                             data_planes=[None])]


@pytest.fixture(scope="module")
def stored():
    return baseline.load()


@pytest.mark.parametrize("spec", list(run_matrix()), ids=lambda s: s.key)
def test_cell_passes_every_oracle(spec, stored):
    entry, verdict = measured(spec.key)
    assert verdict.problems == []
    assert baseline.compare_entry(spec.key, stored[spec.key], entry) == []


@pytest.mark.parametrize("app,mode,opt", CASES,
                         ids=[f"{a}-{m}-{o}" for a, m, o in CASES])
def test_inspection_reconciles(app, mode, opt):
    """Every app at every applicable level (and mp): the inspector's
    reconstruction reconciles, and its report names every section."""
    got = judged(cell(app, mode, opt))
    assert got.inspector == []
    assert "Critical path" in got.inspection
    assert "Lock contention" in got.inspection


def check_one(key, tmp_path):
    """``check`` of one cell against its committed entry alone."""
    path = tmp_path / "one.json"
    baseline.save({key: baseline.load()[key]}, path)
    return baseline.check(path=path,
                          matrix=[RunSpec.from_key(key, **SIZING)])


def test_check_reports_an_unsound_push(tmp_path):
    """Dropping the first Push's first write section leaves bytes the
    receivers never get: the gate's sanitizer names the cell."""
    entry = next(e for e in matrix.build_corpus(["jacobi"], ["push"])
                 if e.target == "push-write" and e.op == "drop")

    def drop(site, stmt):
        return matrix.apply_mutation(stmt, entry, {}) \
            if site == entry.site else stmt

    with hint_mutation(drop):
        res = check_one("jacobi/dsm/push", tmp_path)
    assert any(p.startswith("jacobi/dsm/push: sanitizer: [hint:")
               for p in res.problems), res.problems


def test_check_reports_a_diverging_result(tmp_path, monkeypatch):
    """One wrong element of a snapshot moves no counter; the gate's
    result oracle still names the array."""
    name = get_app("jacobi").check_arrays[0]
    real = TmSystem.snapshot

    def corrupted(self):
        arrays = real(self)
        arrays[name].flat[0] += 1.0
        return arrays

    monkeypatch.setattr(TmSystem, "snapshot", corrupted)
    res = check_one("jacobi/dsm/base", tmp_path)
    assert len(res.problems) == 1, res.problems
    assert res.problems[0].startswith(
        f"jacobi/dsm/base: result: array {name!r}: 1/")
    # An update writes the (unchanged) record and still fails.
    res = baseline.check(path=tmp_path / "one.json", update=True,
                         matrix=[RunSpec.from_key("jacobi/dsm/base",
                                                  **SIZING)])
    assert res.updated and not res.ok and len(res.problems) == 1
    assert baseline.load(tmp_path / "one.json") == res.measured


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


def test_check_cli_against_committed_baselines(capsys, monkeypatch):
    """`python -m repro check` passes on the checked-in baselines (here
    one backend x one plane; every cell is gated above, one test id
    each, and a cell judged there is not run twice: ``measure`` is
    deterministic).  After an intentional protocol change, refresh them
    with ``python -m repro check --update-baselines`` (``--protocol
    <backend>`` touches one backend only) and commit the diff."""
    from repro.__main__ import main

    monkeypatch.setattr(baseline, "measure",
                        lambda spec: measured(spec.key))
    assert main(["check", "--protocol", "hlrc",
                 "--data-plane", "onesided"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("OK: 25 baseline entries match\n")
