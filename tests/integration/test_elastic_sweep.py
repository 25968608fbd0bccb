"""Elastic harness end-to-end: membership churn is invisible except in
cost — and the failure detector's false positives are survivable."""

import json

import pytest

from repro.harness import elastic


@pytest.mark.parametrize("app,opt,schedule", [
    ("jacobi", "aggr", "drain-master"),   # seat + manager handoff
    ("is", "aggr", "drain-mid"),          # lock-token custody
    ("jacobi", "base", "join-early"),     # lazy catch-up re-entry
    ("shallow", "merge", "drain-mid"),    # merge-level sync traffic
])
def test_membership_change_is_bit_identical(app, opt, schedule):
    case = elastic.run_case(app, opt, schedule)
    assert case.ok, case.as_dict()
    assert case.identical
    assert case.realized                # the event actually fired
    assert case.violations == []        # inspector reconciles exactly
    assert case.findings == []          # sanitizer stays clean
    if schedule.startswith("drain"):
        assert case.handoff_messages > 0
        assert case.handoff_bytes > 0


def test_false_positive_suspicion_is_survived():
    """A silence between the suspicion and eviction thresholds: the
    detector wrongly suspects a live node, re-admits it on the next
    beat, and the answer is still bit-identical."""
    case = elastic.run_case("jacobi", "aggr", "suspect-then-recover")
    assert case.ok, case.as_dict()
    assert "suspected" in case.observed
    assert "admitted" in case.observed
    assert "evicted" not in case.observed
    assert case.suspicions >= 1 and case.admissions >= 1
    assert case.detect_us > 0           # detection latency was measured


def test_eviction_is_survived_too():
    """A long silence crosses the eviction threshold: the node is
    declared evicted, keeps computing, and is re-admitted when its
    NIC returns — results still bit-identical."""
    case = elastic.run_case("jacobi", "aggr", "evict-at-barrier")
    assert case.ok, case.as_dict()
    assert {"suspected", "evicted", "admitted"} <= case.observed
    assert case.evictions >= 1


def test_join_handoff_accounting_matches_the_wire():
    """Requests, replies and announcements are all counted, in messages
    and in bytes: the churn cost equals what NetStats saw on the wire
    (a join retransmits none of its frames)."""
    from repro.harness.spec import RunSpec, run
    spec = RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                   opt="base", page_size=1024)
    base = run(spec, telemetry=True)
    plan = elastic.mine_schedules(
        base, 4, names=("join-early",))[0].fault_plan()
    out = run(spec, faults=plan, telemetry=True)
    cost = [ev.args for ev in out.telemetry.bus.events
            if ev.kind == "mem.join"][-1]
    net = out.net
    kinds = sorted(k for k in net.by_kind if k.startswith("mem."))
    assert kinds == ["mem.ask", "mem.join", "mem.state"]
    frames = sum(net.by_kind[k] for k in kinds)
    assert cost["handoff_messages"] == frames == 9
    assert cost["handoff_bytes"] == (
        sum(net.bytes_by_kind[k] for k in kinds)
        - net.header_bytes * frames)


def test_schedule_mining_produces_all_families():
    from repro.harness.spec import RunSpec, run
    base = run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                       nprocs=4, opt="aggr", page_size=1024),
               telemetry=True)
    names = [s.name for s in elastic.mine_schedules(base, 4)]
    assert names == list(elastic.SCHEDULES)
    hb = elastic.mine_schedules(base, 4)[0].plan.heartbeat
    assert hb.suspect_after_us < hb.evict_after_us


def test_sweep_reduced_matrix():
    cases = elastic.sweep(apps=["jacobi"], opts=["aggr"],
                          schedules=["drain-mid", "join-early"],
                          inspect=False)
    assert len(cases) == 2
    assert all(c.identical for c in cases), \
        [c.as_dict() for c in cases]


def test_render_reports_failures():
    case = elastic.ElasticCase(app="x", opt="base",
                               schedule="drain-mid", identical=False)
    text = elastic.render_elastic([case])
    assert "DIVERGED" in text and "ELASTIC FAIL" in text
    good = elastic.ElasticCase(app="x", opt="base", schedule="ok",
                               identical=True, realized=True)
    assert "ELASTIC OK" in elastic.render_elastic([good])


def test_elastic_cli_end_to_end(capsys, tmp_path):
    from repro.__main__ import main
    json_path = tmp_path / "elastic.json"
    rc = main(["elastic", "--apps", "jacobi", "--opts", "aggr",
               "--schedules", "drain-master", "--json",
               str(json_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ELASTIC OK" in out
    data = json.loads(json_path.read_text())
    assert data["schema"].startswith("repro-elastic/")
    assert data["cases"] and all(c["ok"] for c in data["cases"])
    assert data["cases"][0]["realized"]
    assert data["cases"][0]["handoff_messages"] > 0


def test_elastic_cli_with_declarative_plan(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"membership": {
        "drains": [{"pid": 1, "t": 4000.0, "away_us": 2500.0}]}}))
    from repro.__main__ import main
    rc = main(["elastic", "--apps", "jacobi", "--opts", "aggr",
               "--plan", str(plan_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ELASTIC OK" in out and "plan" in out
