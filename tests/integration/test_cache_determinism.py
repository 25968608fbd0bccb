"""The interpreter's access plans and the layout's section->pages memo
must be invisible: a run's event stream may depend neither on string
hashing (the memo is keyed by Sections, which hash their array name)
nor on whether a plan or memo entry was cold or warm.
"""

import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import repro
from repro.harness import RunSpec, run
from repro.tm.coherence import protocols

BACKENDS = protocols()

SPEC = dict(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
            page_size=1024, opt="base", telemetry=True)

SCRIPT = """
import sys
from repro.harness import RunSpec, run
out = run(RunSpec(protocol=sys.argv[1], **{spec!r}))
sys.stdout.write(out.telemetry.events_jsonl())
""".format(spec=SPEC)


def traced_in_subprocess(protocol, hashseed):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT, protocol],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("protocol", BACKENDS)
def test_event_stream_independent_of_hash_seed(protocol):
    a = traced_in_subprocess(protocol, 0)
    b = traced_in_subprocess(protocol, 4242)
    assert a, "empty event stream"
    assert a == b


@pytest.mark.parametrize("protocol", BACKENDS)
def test_cold_and_warm_runs_are_identical(protocol):
    first = run(RunSpec(protocol=protocol, **SPEC))
    second = run(RunSpec(protocol=protocol, **SPEC))
    assert (first.telemetry.events_jsonl()
            == second.telemetry.events_jsonl())
    assert first.stats.as_dict() == second.stats.as_dict()
    assert asdict(first.net) == asdict(second.net)
    assert first.time == second.time
