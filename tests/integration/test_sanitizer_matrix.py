"""The sanitizer's soundness proof, run end to end.

Completeness: every app at every applicable opt level sanitizes clean
(no races, no hint findings, no stream anomalies).  Detection: every
entry of the mutated-hint corpus — shrunk, shifted, dropped sections
injected through the compiler's ``hint_mutation`` hook — is reported.
A hand-built racy program checks the race detector end to end, and the
CLI wrappers are exercised once each.
"""

import json

import pytest

from repro.apps import all_apps
from repro.harness.modes import applicable_levels
from repro.sanitizer import matrix

APPS = sorted(all_apps())


@pytest.mark.parametrize("app", APPS)
def test_clean_matrix_app(app):
    cases = matrix.clean_matrix(apps=[app])
    levels = applicable_levels(all_apps()[app])
    assert [c.opt for c in cases] == list(levels)
    for case in cases:
        rep = case.report
        assert case.ok, f"{app} {case.opt}:\n{rep.render()}"
        assert rep.problems == []
        assert rep.accesses > 0
        # Hint checking armed exactly at the eliminating levels.
        assert rep.hint_checking == (case.opt in matrix.ELIMINATING)


@pytest.mark.parametrize("app", APPS)
def test_mutation_corpus_fully_detected(app):
    corpus = matrix.build_corpus(apps=[app])
    if not corpus:
        pytest.skip(f"{app} has no eliminating-level hints to mutate")
    matrix.run_corpus(corpus)
    missed = [e for e in corpus if not e.detected]
    assert not missed, "\n".join(
        f"{e.app} {e.opt} site {e.site} {e.target}/{e.op}: "
        f"{e.original} -> {e.mutated}" for e in missed)


def test_corpus_covers_every_mutation_shape():
    corpus = matrix.build_corpus()
    shapes = {(e.target, e.op) for e in corpus}
    assert ("validate", "shrink") in shapes
    assert ("validate", "shift") in shapes
    assert ("push-write", "drop") in shapes
    assert ("push-write", "shrink") in shapes
    assert ("push-read", "shift") in shapes


def test_hand_built_racy_program_detected():
    from repro.memory import SharedLayout
    from repro.sanitizer import Sanitizer
    from repro.telemetry import Telemetry
    from repro.tm.system import TmSystem

    layout = SharedLayout(page_size=64)
    layout.add_array("a", (16,))
    tel = Telemetry(access_events=True)
    system = TmSystem(nprocs=2, layout=layout, telemetry=tel)
    san = Sanitizer(layout, 2, hint_checking=False).attach(tel.bus)

    def main(node):
        a = node.array("a")
        a[node.pid] = 1.0       # disjoint elements, same page: no race
        a[7] = float(node.pid)  # same element, no ordering: race
        node.barrier()

    system.run(main)
    rep = san.finish()
    races = [f for f in rep.findings if f.category == "race"]
    assert races, rep.render()
    assert any(f.kind == "race" and "a[7]" in f.where for f in races)


def test_lock_ordered_program_clean():
    from repro.memory import SharedLayout
    from repro.sanitizer import Sanitizer
    from repro.telemetry import Telemetry
    from repro.tm.system import TmSystem

    layout = SharedLayout(page_size=64)
    layout.add_array("a", (16,))
    tel = Telemetry(access_events=True)
    system = TmSystem(nprocs=2, layout=layout, telemetry=tel)
    san = Sanitizer(layout, 2, hint_checking=False).attach(tel.bus)

    def main(node):
        a = node.array("a")
        node.lock_acquire(0)
        a[7] = a[7] + 1.0
        node.lock_release(0)
        node.barrier()

    system.run(main)
    rep = san.finish()
    assert rep.ok, rep.render()


def test_cli_sanitize_and_bench(tmp_path, capsys):
    from repro.__main__ import bench_main, sanitize_main

    assert sanitize_main(["jacobi", "--opt", "merge"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out

    path = tmp_path / "bench.json"
    assert bench_main(["--apps", "jacobi", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro-bench/1"
    cells = payload["cells"]
    assert {"jacobi/seq", "jacobi/dsm/push", "jacobi/mp"} <= set(cells)
    for rec in cells.values():
        assert rec["time_us"] > 0
    # The human table derives the speedup; the payload stores none.
    assert "speedup" in capsys.readouterr().out
    assert not any("speedup" in rec for rec in cells.values())


def test_cli_sanitize_detects_mutation(capsys):
    """The CI smoke case: one mutated hint makes the CLI exit non-zero."""
    from repro.__main__ import sanitize_main
    from repro.compiler.transform import hint_mutation
    from repro.sanitizer.replay import _resolve

    corpus = matrix.build_corpus(apps=["jacobi"])
    entry = next(e for e in corpus if e.op == "shrink")
    _, _, prog, _ = _resolve(entry.app, entry.opt, "tiny", 4, 1024)
    shapes = {a.name: a.shape for a in prog.arrays}

    def fn(site, stmt):
        if site != entry.site:
            return stmt
        return matrix.apply_mutation(stmt, entry, shapes)

    with hint_mutation(fn):
        rc = sanitize_main([entry.app, "--opt", entry.opt])
    assert rc == 1
    assert "uncovered" in capsys.readouterr().out


def test_bench_payload_matches_direct_runs():
    from repro.harness import bench
    from repro.harness.experiments import app_runs, clear_cache

    clear_cache()
    payload = bench.bench(apps=["is"])
    runs = app_runs(all_apps()["is"], dataset="tiny", nprocs=4,
                    page_size=1024)
    cells = payload["cells"]
    assert cells["is/dsm/base"] == runs.dsm["base"].record()
    assert cells["is/mp"]["data_bytes"] == runs.pvme.data_bytes
    assert cells["is/seq"]["time_us"] == runs.seq_time
    assert "is/xhpf" not in cells and runs.xhpf is None
    dsm = {k: v for k, v in cells.items() if "/dsm/" in k}
    best = min((k for k in dsm if k != "is/dsm/base"),
               key=lambda k: dsm[k]["time_us"])
    assert best == f"is/dsm/{runs.best_level()}"
