"""The capability table: one statement of which run cells are legal.

Every hole must raise the *same* message from every entry point that
can reach it, and every legal cell must actually run (result equals
the numpy reference, inspector reconciles, sanitizer clean).
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro import capability
from repro.__main__ import main
from repro.apps import get_app
from repro.capability import (HOLES, Cell, cell_of, legal_cells,
                              perturbations_of, render_matrix, require)
from repro.errors import ReproError
from repro.faults import FaultPlan, NodeCrash
from repro.harness import OPT_LEVELS, RunSpec, layout_for, run
from repro.harness.chaos import INTENSITIES
from repro.membership import MembershipPlan, NodeDrain
from repro.telemetry import Telemetry
from repro.tm.system import TmSystem

REPO = Path(__file__).resolve().parents[2]

PLANS = {
    "faults": FaultPlan.uniform(seed=1, **INTENSITIES["moderate"]),
    "crashes": FaultPlan(crashes=(NodeCrash(pid=1, t=4000.0),)),
    "membership": FaultPlan(membership=MembershipPlan(
        drains=(NodeDrain(1, 3000.0, 2000.0),))),
}

#: One row per HOLES row, in table order: the cell that falls in it, and
#: a CLI invocation reaching it (None: no subcommand can ask for it).
HOLE_CASES = [
    (Cell("mp", "hlrc"),
     ["inspect", "jacobi", "--mode", "mp", "--protocol", "hlrc"]),
    (Cell("xhpf", data_plane="onesided"),
     ["inspect", "jacobi", "--mode", "xhpf", "--data-plane", "onesided"]),
    (Cell(data_plane="onesided", perturbations=frozenset({"crashes"})),
     ["chaos", "--apps", "jacobi", "--opts", "base", "--data-plane",
      "onesided", "--plan", "<crashes>"]),
    (Cell("seq", perturbations=frozenset({"faults"})), None),
    (Cell("mp", perturbations=frozenset({"crashes"})), None),
    (Cell(protocol="hlrc", perturbations=frozenset({"crashes"})),
     ["recover", "--apps", "jacobi", "--protocol", "hlrc"]),
    (Cell("xhpf", perturbations=frozenset({"membership"})), None),
    (Cell(protocol="adaptive", perturbations=frozenset({"membership"})),
     ["elastic", "--apps", "jacobi", "--protocol", "adaptive"]),
]


def _plan(cell: Cell):
    for name in ("crashes", "membership", "faults"):
        if name in cell.perturbations:
            return PLANS[name]
    return None


def _spec(cell: Cell, app: str, **kw) -> RunSpec:
    return RunSpec(app=app, mode=cell.mode, dataset="tiny", nprocs=4,
                   page_size=1024, protocol=cell.protocol,
                   data_plane=cell.data_plane, faults=_plan(cell),
                   opt="aggr" if cell.mode == "dsm" else None, **kw)


def test_hole_cases_cover_the_table_in_order():
    assert len(HOLE_CASES) == len(HOLES)
    for i, (cell, _) in enumerate(HOLE_CASES):
        first = next(j for j, (pred, _) in enumerate(HOLES) if pred(cell))
        assert first == i, cell
        assert cell not in legal_cells()


@pytest.mark.parametrize("i", range(len(HOLES)))
def test_hole_raises_one_message_from_every_entry_point(i, tmp_path,
                                                        capsys):
    cell, argv = HOLE_CASES[i]
    message = HOLES[i][1].format(c=cell)
    with pytest.raises(ReproError) as exc:
        require(cell)
    assert str(exc.value) == message

    with pytest.raises(ReproError) as exc:
        run(_spec(cell, "jacobi"))
    assert str(exc.value) == message

    if cell.mode == "dsm":
        with pytest.raises(ReproError) as exc:
            TmSystem(nprocs=4, layout=None, protocol=cell.protocol,
                     data_plane=cell.data_plane, faults=_plan(cell))
        assert str(exc.value) == message

    if argv is None:
        return
    if "<crashes>" in argv:
        # The only CLI road to this hole is a chaos --plan that carries
        # crashes: the sweep's own cell is legal, so the hole surfaces
        # as the case's error rather than as a raise.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"crashes": [{"pid": 1, "t": 4000.0}]}))
        argv = [str(path) if a == "<crashes>" else a for a in argv]
        assert main(argv) == 1
        assert message in capsys.readouterr().out.replace("\n", " ")
        return
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_names_still_raise():
    with pytest.raises(ReproError, match="unknown mode 'bogus'"):
        run(RunSpec(app="jacobi", mode="bogus"))
    for kw, match in ((dict(data_plane="bogus"), "unknown data_plane"),
                      (dict(protocol="bogus"),
                       "unknown coherence protocol")):
        with pytest.raises(ReproError, match=match):
            run(RunSpec(app="jacobi", mode="dsm", nprocs=2, **kw))
        with pytest.raises(ReproError, match=match):
            TmSystem(nprocs=2, layout=None, **kw)
        with pytest.raises(ReproError, match=match):
            cell_of("dsm", **kw)


def test_cell_of_normalises_defaults_and_reads_the_plan():
    assert cell_of("dsm") == Cell()
    assert cell_of("dsm", "mw-lrc", "twosided") == Cell()
    assert perturbations_of() == frozenset()
    assert perturbations_of(transport=True) == {"faults"}
    assert perturbations_of(PLANS["faults"]) == {"faults"}
    assert perturbations_of(PLANS["crashes"]) == {"faults", "crashes"}
    assert perturbations_of(PLANS["membership"]) == \
        {"faults", "membership"}


def test_capability_sits_below_every_layer():
    """Module-level imports: the standard library and repro.errors."""
    tree = ast.parse(Path(capability.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            assert not node.module.startswith("repro") \
                or node.module == "repro.errors", node.module
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)


def test_docs_feature_matrix_is_current():
    text = (REPO / "docs" / "robustness.md").read_text()
    begin = "<!-- capability-matrix:begin -->\n"
    end = "\n<!-- capability-matrix:end -->"
    assert begin in text and end in text
    block = text[text.index(begin) + len(begin):text.index(end)]
    assert block == render_matrix(), \
        "docs/robustness.md is stale: paste the output of " \
        "python -c 'from repro.capability import render_matrix; " \
        "print(render_matrix())' between the capability-matrix markers"


# ----------------------------------------------------------------------
# Generated conformance: every legal cell runs, and runs right.
# ----------------------------------------------------------------------

FIRED = {"faults": lambda out, kinds: out.net.faults_injected > 0,
         "crashes": lambda out, kinds: "rec.crash" in kinds,
         "membership": lambda out, kinds: "mem.leave" in kinds}


def _cell_id(cell: Cell) -> str:
    return "-".join([cell.mode, cell.protocol, cell.data_plane,
                     *sorted(cell.perturbations)])


@pytest.mark.parametrize("cell", legal_cells(), ids=_cell_id)
def test_every_legal_cell_conforms(cell):
    from repro.inspect import InspectReport
    from repro.sanitizer.replay import sanitize_events

    # 'is' is the tiny app with locks as well as barriers, but it has
    # no XHPF lowering; jacobi runs in every mode.
    name = "is" if cell.mode == "dsm" else "jacobi"
    app = get_app(name)
    out = run(_spec(cell, name, telemetry=Telemetry(access_events=True)))

    ref = app.reference(dict(app.dataset("tiny").params))
    for arr in app.check_arrays:
        assert np.allclose(out.arrays[arr], ref[arr], rtol=1e-9,
                           atol=1e-12), arr
    kinds = {ev.kind for ev in out.telemetry.bus.events}
    for pert in cell.perturbations:
        assert FIRED[pert](out, kinds), f"{pert} never fired"
    assert InspectReport.build(out, title=_cell_id(cell)).reconcile() == []
    if cell.mode == "dsm":
        rep = sanitize_events(
            out.telemetry.bus.events,
            layout_for(out.program, page_size=1024), 4,
            opt=OPT_LEVELS["aggr"])
        assert rep.findings == [] and rep.reconcile(out) == []
