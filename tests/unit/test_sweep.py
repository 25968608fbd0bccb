"""The shared perturbed-run driver and its three policies.

Pins what the ledger and the CI artifacts rely on: ``run_case``'s
keyword contract, each kind's ``as_dict()`` key order, the one
renderer's verdict per status, and ``sweep(plan=...)`` for the mined
sweeps.
"""

import inspect
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, NodeCrash
from repro.harness import chaos, elastic, recover
from repro.harness.modes import SIZING
from repro.harness.sweep import Sweep, arrays_identical
from repro.membership import MembershipPlan, NodeDrain

MODULES = {"chaos": chaos, "recover": recover, "elastic": elastic}

KEYS = {
    "chaos": [
        "app", "opt", "intensity", "seed", "ok", "identical",
        "violations", "error", "base_time_us", "time_us",
        "added_time_us", "base_messages", "messages", "extra_messages",
        "retransmits", "acks", "dup_frames_discarded",
        "faults_injected"],
    "recover": [
        "app", "opt", "schedule", "pid", "t_us", "ok", "identical",
        "realized", "violations", "findings", "error", "base_time_us",
        "time_us", "added_time_us", "log_messages", "log_bytes",
        "state_bytes", "recovery_us", "records", "diffs"],
    "elastic": [
        "app", "opt", "schedule", "ok", "identical", "realized",
        "expected", "observed", "violations", "findings", "error",
        "base_time_us", "time_us", "added_time_us", "handoff_messages",
        "handoff_bytes", "beats", "detect_us", "suspicions",
        "evictions", "admissions"],
}

#: The calls benchmarks/ledger makes, and the cost attributes it reads.
LEDGER = {
    "chaos": (("jacobi", "aggr", "moderate"),
              dict(protocol=None, data_plane=None, seed=0),
              ("messages", "retransmits", "acks", "dup_frames_discarded",
               "faults_injected")),
    "recover": (("jacobi", "aggr", "manager"), dict(protocol=None),
                ("log_messages", "state_bytes", "recovery_us")),
    "elastic": (("jacobi", "aggr", "drain-mid"),
                dict(protocol=None, data_plane=None),
                ("handoff_messages", "handoff_bytes", "beats",
                 "detect_us")),
}


def _case(kind, **fields):
    """A synthetic case of ``kind`` that passes unless ``fields`` say
    otherwise."""
    cls = {"chaos": chaos.ChaosCase, "recover": recover.RecoverCase,
           "elastic": elastic.ElasticCase}[kind]
    base = dict(app="x", opt="base", identical=True)
    if kind == "chaos":
        base.update(intensity="light", seed=0)
    else:
        base.update(schedule="sched", realized=True)
    return cls(**{**base, **fields})


def _render(kind, cases):
    return getattr(MODULES[kind], f"render_{kind}")(cases)


@pytest.mark.parametrize("kind", MODULES)
def test_run_case_keyword_contract(kind):
    mod = MODULES[kind]
    assert isinstance(mod.POLICY, Sweep) and mod.POLICY.kind == kind
    params = inspect.signature(mod.run_case).parameters
    assert list(params)[:3] == ["app", "opt", "label"]
    assert {"protocol", "data_plane", "seed", "base", "plan",
            "inspect"} <= set(params)
    # The sizing triple is stated once (harness.modes.SIZING); any of
    # it may be overridden by keyword.
    assert params["sizing"].kind is inspect.Parameter.VAR_KEYWORD

    args, kw, costs = LEDGER[kind]
    case = mod.run_case(*args, **kw, **SIZING)
    assert case.ok and case.status == "ok", case.as_dict()
    assert case.time > case.base_time > 0
    assert list(case.as_dict()) == KEYS[kind]
    for attr in costs:
        assert getattr(case, attr) >= 0
    assert f"{kind.upper()} OK: 1 " in _render(kind, [case])


@pytest.mark.parametrize("kind", MODULES)
def test_as_dict_key_order_is_pinned(kind):
    assert list(_case(kind).as_dict()) == KEYS[kind]


@pytest.mark.parametrize("kind,status,fields,detail", [
    (k, "ERROR", dict(error="Boom: x", identical=False), "Boom: x")
    for k in MODULES
] + [
    (k, "DIVERGED", dict(identical=False), "result diverged")
    for k in MODULES
] + [
    (k, "INVARIANT", dict(violations=["v1", "v2"]), "v1; v2")
    for k in MODULES
] + [
    ("recover", "INVARIANT", dict(findings=["f1"]), "f1"),
    ("recover", "UNREALIZED", dict(realized=False),
     "the scheduled crash never fired"),
    ("elastic", "UNREALIZED", dict(realized=False),
     "expected [] but observed []"),
    ("elastic", "UNREALIZED",
     dict(expected=frozenset({"suspected"})),
     "expected ['suspected'] but observed []"),
    # An eviction nobody planned is a failure even when survived.
    ("elastic", "UNREALIZED", dict(observed=frozenset({"evicted"})),
     "expected [] but observed ['evicted']"),
])
def test_render_failing_case_per_status(kind, status, fields, detail):
    bad = _case(kind, **fields)
    assert bad.status == status and not bad.ok
    assert bad.as_dict()["ok"] is False
    text = _render(kind, [_case(kind), bad])
    assert f"  {status}  " in text
    assert f"{kind.upper()} FAIL: 1 of 2 cases diverged" in text
    assert text.endswith(f"  ! x/base/{bad.label}: {detail}")


def test_sweep_with_explicit_plan_recover_and_elastic():
    crash = FaultPlan(crashes=(NodeCrash(pid=2, t=5000.0),))
    [case] = recover.sweep(apps=["jacobi"], opts=["aggr", "nonesuch"],
                           plan=crash, inspect=False)
    assert case.ok and case.schedule == "plan"
    assert (case.pid, case.t) == (2, 5000.0)
    assert case.state_bytes > 0

    drain = FaultPlan(membership=MembershipPlan(
        drains=(NodeDrain(1, 4000.0, 2500.0),)))
    [case] = elastic.sweep(apps=["jacobi"], opts=["aggr"], plan=drain,
                           inspect=False)
    assert case.ok and case.schedule == "plan"
    assert case.handoff_messages > 0
    with pytest.raises(ReproError, match="'membership' block"):
        elastic.sweep(apps=["jacobi"], opts=["aggr"], plan=crash)


def test_sweep_refuses_a_hole_before_the_base_run(monkeypatch):
    import repro.harness.sweep as driver
    monkeypatch.setattr(driver, "run", lambda *a, **kw: pytest.fail(
        "ran before consulting the capability table"))
    with pytest.raises(ReproError, match="supports only protocol"):
        recover.sweep(apps=["jacobi"], protocol="hlrc")
    with pytest.raises(ReproError, match="scheduled node crashes"):
        recover.run_case("jacobi", "aggr", "mid", data_plane="onesided")
    with pytest.raises(ReproError, match="supports only protocol"):
        elastic.run_case("jacobi", "aggr", "drain-mid",
                         protocol="adaptive")


def test_payload_envelope_per_kind():
    header = dict(dataset="tiny", nprocs=4, page_size=1024,
                  protocol=None)
    for kind, mod in MODULES.items():
        payload = mod.POLICY.payload([_case(kind)], seed=7, **header)
        seed = ["seed"] if kind == "chaos" else []
        assert list(payload) == ["schema", "generated_by", *seed,
                                 *header, "cases"]
        assert payload["schema"] == f"repro-{kind}/1"
        assert payload["cases"] == [_case(kind).as_dict()]


def test_arrays_identical():
    import numpy as np
    a = {"x": np.arange(4.0), "y": np.zeros(2)}
    assert arrays_identical(a, {k: v.copy() for k, v in a.items()})
    assert not arrays_identical(a, {"x": a["x"]})
    assert not arrays_identical(a, {**a, "y": np.array([0.0, 1e-300])})


def test_importing_the_harness_stays_light():
    """The fault-free ledger workloads import repro.harness and must
    not pay for the sweep stacks, the sanitizer or the inspector."""
    code = ("import sys, repro.harness; "
            "print([m for m in sys.modules if m.startswith(("
            "'repro.sanitizer', 'repro.inspect', 'repro.harness.sweep', "
            "'repro.harness.chaos', 'repro.harness.recover', "
            "'repro.harness.elastic'))])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
