"""Determinism under observation, across every coherence backend.

The wall-clock profiler only *reads* engine state, so a profiled run
must be byte-identical to a bare one — same simulated time, same
traffic, same array contents — under every registered protocol.  The second half closes the offline loop: a JSONL telemetry
export reloaded from disk must drive the inspector to the same report
as the live run.
"""

import json
from types import SimpleNamespace

import pytest

from repro.harness import RunSpec, run
from repro.inspect import InspectReport
from repro.telemetry import Telemetry
from repro.tm.coherence import protocols

BACKENDS = sorted(protocols())

SPEC = dict(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
            page_size=1024, opt="aggr")


def outcome_fingerprint(out):
    """Everything a run produces that the observatory must not touch."""
    return {
        "time": float(out.time),
        "messages": int(out.messages),
        "data_bytes": int(out.data_bytes),
        "stats": out.stats.as_dict() if out.stats is not None else None,
        "arrays": {name: arr.tobytes()
                   for name, arr in sorted(out.arrays.items())},
    }


@pytest.mark.parametrize("protocol", BACKENDS)
def test_observatory_is_invisible(protocol):
    bare = run(RunSpec(protocol=protocol, **SPEC))
    observed = run(RunSpec(protocol=protocol, profile=True, **SPEC))
    assert observed.profile.n_events > 0
    assert outcome_fingerprint(observed) == outcome_fingerprint(bare)


@pytest.mark.parametrize("protocol", BACKENDS)
def test_observatory_is_invisible_with_telemetry(protocol):
    """Profiling on top of a traced run must not perturb the event
    stream either: identical event counts and span totals."""
    plain = run(RunSpec(protocol=protocol, telemetry=True, **SPEC))
    profiled = run(RunSpec(protocol=protocol, telemetry=True,
                           profile=True, **SPEC))
    assert outcome_fingerprint(profiled) == outcome_fingerprint(plain)
    assert profiled.telemetry.counts() == plain.telemetry.counts()
    assert (profiled.telemetry.events_jsonl()
            == plain.telemetry.events_jsonl())


@pytest.mark.parametrize("protocol", BACKENDS)
def test_jsonl_roundtrip_reproduces_inspect_report(protocol, tmp_path):
    out = run(RunSpec(protocol=protocol, telemetry=True, **SPEC))
    live = InspectReport.build(out, title="run")
    assert live.reconcile() == []

    path = tmp_path / "events.jsonl"
    out.telemetry.write_jsonl(path)
    reloaded = Telemetry.from_jsonl(path)
    assert reloaded.counts() == out.telemetry.counts()
    assert len(reloaded.spans) == len(out.telemetry.spans)

    # Offline stand-in for the outcome: only the summary scalars (the
    # totals of its record) survive a JSONL export; TmStats/NetStats
    # cross-checks are skipped on both sides of the comparison below.
    totals = {k: out.record()[k]
              for k in ("time_us", "messages", "data_bytes")}
    offline_out = SimpleNamespace(
        telemetry=reloaded, time=out.time, messages=out.messages,
        data_bytes=out.data_bytes, stats=None, net=None,
        record=lambda: totals)
    offline = InspectReport.build(offline_out, title="run")

    def fingerprint(report):
        d = report.as_dict()
        d.pop("tm_stats", None)
        # json round-trips tuples to lists, matching the reloaded side.
        return json.dumps(d, sort_keys=True)

    assert fingerprint(offline) == fingerprint(live)


def test_jsonl_roundtrip_access_stream(tmp_path):
    """The loader also closes the loop for an access-traced run (the
    densest stream: rt.* events carry section geometry)."""
    tel = Telemetry(access_events=True)
    out = run(RunSpec(telemetry=tel, **SPEC))
    text = out.telemetry.events_jsonl()
    path = tmp_path / "events.jsonl"
    path.write_text(text + "\n")
    reloaded = Telemetry.from_jsonl(path)
    assert reloaded.counts() == out.telemetry.counts()
    assert reloaded.events_jsonl() == text
