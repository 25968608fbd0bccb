"""End-to-end telemetry smoke test.

Runs one small application through ``python -m repro inspect --chrome
--jsonl`` and asserts the exported Chrome trace is non-empty and
well-formed: one track per simulated processor, and events for faults,
diffs, barriers and validates.
"""

import json

import pytest

from repro.__main__ import main

NPROCS = 4


@pytest.fixture(scope="module")
def trace_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    out = tmp / "trace.json"
    jsonl = tmp / "events.jsonl"
    rc = main(["inspect", "jacobi", "--chrome", str(out),
               "--jsonl", str(jsonl),
               "--nprocs", str(NPROCS), "--dataset", "tiny"])
    assert rc == 0
    return json.loads(out.read_text()), jsonl.read_text()


class TestTraceSmoke:
    def test_trace_nonempty_and_wellformed(self, trace_doc):
        doc, _ = trace_doc
        evs = doc["traceEvents"]
        assert len(evs) > 100
        for e in evs:
            assert e["ph"] in ("M", "X", "i")
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            if e["ph"] != "M":
                assert e["ts"] >= 0

    def test_one_track_per_processor(self, trace_doc):
        doc, _ = trace_doc
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {f"P{p}" for p in range(NPROCS)}
        # Every processor actually produced spans on its own track.
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == set(range(NPROCS))

    @pytest.mark.parametrize("kind", ["tm.read_fault", "tm.write_fault",
                                      "tm.diff_create", "tm.diff_apply",
                                      "tm.barrier", "tm.validate"])
    def test_required_event_families_present(self, trace_doc, kind):
        doc, _ = trace_doc
        n = sum(1 for e in doc["traceEvents"]
                if e["ph"] == "i" and e["name"] == kind)
        assert n > 0, kind

    def test_metadata_counts_consistent(self, trace_doc):
        doc, _ = trace_doc
        counts = doc["otherData"]["event_counts"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert sum(counts.values()) == len(instants)
        assert doc["otherData"]["metrics_total"]["tm.barriers"] > 0

    def test_jsonl_lines_parse(self, trace_doc):
        _, jsonl = trace_doc
        lines = jsonl.strip().splitlines()
        assert lines
        recs = [json.loads(ln) for ln in lines]
        assert {r["rec"] for r in recs} == {"event", "span"}


def test_legacy_artifact_cli_still_works(capsys):
    assert main(["table1", "--dataset", "tiny"]) == 0
    assert "jacobi" in capsys.readouterr().out.lower()
