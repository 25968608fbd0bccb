"""Self-tests of the ledger (tiny-cell smoke mode, under a minute).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import copy
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger_protocol as lp  # noqa: E402

lp.use_source_tree()

import ledger_workloads as lw  # noqa: E402


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"ledger_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger_run = _load("run")
ledger_compare = _load("compare")


@pytest.fixture(autouse=True)
def keep_affinity():
    """``run.main`` pins the process; give the CPUs back afterwards."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, before)


def smoke(tmp_path, name, *extra):
    """One in-process smoke run; returns (exit code, result)."""
    out = tmp_path / f"{name}.json"
    code = ledger_run.main(["--workload", "smoke", "--passes", "1",
                            "--json", str(out), *extra])
    with open(out) as fh:
        return code, json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = os.sched_getaffinity(0)
    try:
        code, result = smoke(tmp_path_factory.mktemp("traced"), "traced",
                             "--trace", "1")
    finally:
        os.sched_setaffinity(0, before)
    assert code == 0
    return result


def test_benchmark_json_matches_the_code(traced):
    bench = lp.load_benchmark_json()
    assert bench["paths"] == ["benchmarks/ledger"]
    assert bench["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(n, lw.WORKLOADS[n].why) for n in lw.GATED]
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == lp.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == \
        {k: v[:2] for k, v in lp.PER_LAYER.items()}
    # ... and a run reports exactly those names, with those units.
    rec = traced["workloads"]["smoke"]
    for group, table in (("end_to_end", lp.END_TO_END),
                         ("per_layer", lp.PER_LAYER)):
        assert set(rec[group]) == set(table)
        for name, m in rec[group].items():
            assert m["unit"] == table[name][0]
            assert isinstance(m["value"], (int, float))


def test_driver_line(capsys, tmp_path):
    code, result = smoke(tmp_path, "plain", "--seed", "3")
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] is True
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] == 2 and last["failed"] == 0
    assert set(last["metrics"]) == set(lp.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert result["seed"] == 3 and result["calibration_version"] == 1
    for key in ("pinned", "noisy", "passes", "nproc", "python", "numpy",
                "git_commit"):
        assert key in result


def test_exact_metrics_repeat(traced, tmp_path):
    _, again = smoke(tmp_path, "again")
    a, b = traced["workloads"]["smoke"], again["workloads"]["smoke"]
    assert a["end_to_end"]["sim_time_us"] == b["end_to_end"]["sim_time_us"]
    counts = [k for k, v in lp.PER_LAYER.items() if v[2] == "count"]
    assert counts
    for name in counts:
        assert a["per_layer"][name] == b["per_layer"][name], name
    assert a["per_layer"]["net.messages"]["value"] > 0
    assert a["per_layer"]["tm.onesided_reads"]["value"] > 0


def test_wrong_reference_is_a_failed_op(monkeypatch, capsys, tmp_path):
    real = lw.reference_arrays

    def off_by_one(cell):
        return {k: v + 1.0 for k, v in real(cell).items()}

    monkeypatch.setattr(lw, "reference_arrays", off_by_one)
    code, result = smoke(tmp_path, "wrong")
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["workloads"]["smoke"]["failed_ops"] == 2
    assert last["correct"] is False and last["failed"] == 2


def test_traced_decomposition_equals_harness_run():
    cell = lw.WORKLOADS["smoke"].ops[1]
    plain = lw.run_cell(cell, lw.reference_arrays(cell))
    assert plain.failure is None
    op, prof, run_s = lw.traced_cell(cell, lp.SpanLog("t"), plain.counters)
    assert op.failure is None
    assert op.counters == plain.counters
    assert prof.n_events > 0 and run_s > 0
    wrong = dict(plain.counters, **{"net.messages": -1})
    op, _, _ = lw.traced_cell(cell, lp.SpanLog("t"), wrong)
    assert "traced decomposition" in op.failure


def test_spans_account_for_the_run(traced):
    rec = traced["workloads"]["smoke"]
    with open(lp.ROOT / rec["spans"]) as fh:
        spans = json.load(fh)
    by_id = {s["id"]: s for s in spans}
    runs = [s for s in spans if s["name"] == "TmSystem.run"]
    assert len(runs) == 2
    for run in runs:
        kids = [s for s in spans if s["parent"] == run["id"]]
        assert kids and all(k["name"].startswith("host_s.") for k in kids)
        assert by_id[run["parent"]]["name"] == "cell"
        # self time of the run span = what the buckets do not explain
        assert abs(run["self_s"]) <= 0.25 * (run["t1"] - run["t0"])
    t = rec["traced"]
    assert t["host_s_sum"] == pytest.approx(t["run_span_s"], rel=0.25)


def test_compare_verdicts(traced, tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(traced))
    assert ledger_compare.main([str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "unchanged" in out and "worse" not in out

    bound = {m["name"]: m["bound"]
             for m in lp.load_benchmark_json()["end_to_end"]}["wall_s"]
    slow = copy.deepcopy(traced)
    wall = slow["workloads"]["smoke"]["end_to_end"]["wall_s"]
    for key in ("value", "median", "q1", "q3"):
        wall[key] *= 1.0 + 2 * bound
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slow))
    assert ledger_compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert ledger_compare.main([str(b), str(a)]) == 0
    assert "improved" in capsys.readouterr().out

    drift = copy.deepcopy(traced)
    drift["workloads"]["smoke"]["end_to_end"]["sim_time_us"]["value"] += 1
    drift["workloads"]["smoke"]["failed_ops"] = 1
    c = tmp_path / "c.json"
    c.write_text(json.dumps(drift))
    assert ledger_compare.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "failed_ops/ops rose" in out


def test_selfcheck_matches_protocol_baseline(capsys):
    assert ledger_run.main(["--selfcheck"]) == 0
    assert "selfcheck ok" in capsys.readouterr().out


def test_fails_without_the_source_tree(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own directory exist: no result, non-zero exit."""
    shutil.copy(lp.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "stencil-base", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
