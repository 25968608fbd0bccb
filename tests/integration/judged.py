"""Each run-matrix cell judged at most once per test session.

:func:`repro.inspect.baseline.measure` runs a cell once, traced, and
asks it every question ``repro check`` has (:func:`repro.inspect.
baseline.judge`).  The per-cell gate, the backend conformance tests,
the inspector sweep and the sanitizer's clean matrix all read that one
verdict, and the two reports it was drawn from, instead of running the
cell again.
"""

import functools
import hashlib
from dataclasses import replace
from typing import Optional, Tuple

from repro.harness import RunSpec
from repro.harness.modes import SIZING
from repro.inspect import baseline


def cell(app: str, mode: str = "dsm", opt: Optional[str] = None,
         protocol: Optional[str] = None) -> str:
    """The run-matrix key of one cell at the matrix's sizing."""
    return RunSpec(app=app, mode=mode, opt=opt, protocol=protocol,
                   **SIZING).key


@functools.lru_cache(maxsize=None)
def _measured(key: str) -> Tuple[dict, baseline.Verdict, dict, dict]:
    spec = RunSpec.from_key(key, **SIZING)
    out = baseline.checked_run(spec)
    entry, verdict = baseline.measure(spec, out)
    if verdict.inspection is not None:
        verdict = replace(verdict, inspection=verdict.inspection.render())
    return entry, verdict, fingerprint(out), trace_digest(out)


def measured(key: str) -> Tuple[dict, baseline.Verdict]:
    """``measure`` of the cell ``key`` at the matrix's sizing.  The
    verdict keeps the inspector's report rendered: the report itself
    holds the whole traced run."""
    return _measured(key)[:2]


def fingerprint(out) -> dict:
    """What an untraced run of a cell must reproduce exactly: the
    finish time, the record, each processor's counters, times and CPU
    tally, and the arrays' bytes."""
    return {"time": out.time, "record": out.record(),
            "per_proc": [s.as_dict() for s in out.per_proc or ()],
            "tally": out.tally,
            "arrays": {k: (v.dtype, v.shape, v.tobytes())
                       for k, v in out.arrays.items()}}


def trace_digest(out) -> dict:
    """What a traced run records, but its ``rt.*`` access events: the
    finish time, the CPU tally, and digests of the span list and of the
    event list (time, processor, kind, epoch, args)."""
    tel = out.telemetry

    def digest(items) -> str:
        return hashlib.sha256(repr(list(items)).encode()).hexdigest()

    return {"time": out.time, "tally": out.tally,
            "spans": digest(tel.spans.spans),
            "events": digest(tuple(e) for e in tel.bus.events
                             if not e.kind.startswith("rt."))}


def traced_fingerprint(key: str) -> dict:
    """:func:`fingerprint` of the judged (traced) run of ``key``."""
    return _measured(key)[2]


def judged_trace(key: str) -> dict:
    """:func:`trace_digest` of the judged (traced) run of ``key``."""
    return _measured(key)[3]


def judged(key: str) -> baseline.Verdict:
    """The verdict on the cell ``key``."""
    return measured(key)[1]
