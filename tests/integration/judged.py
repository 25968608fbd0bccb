"""Each run-matrix cell judged at most once per test session.

:func:`repro.inspect.baseline.measure` runs a cell once, traced, and
asks it every question ``repro check`` has (:func:`repro.inspect.
baseline.judge`).  The per-cell gate, the backend conformance tests,
the inspector sweep and the sanitizer's clean matrix all read that one
verdict, and the two reports it was drawn from, instead of running the
cell again.
"""

import functools
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
def _measured(key: str) -> Tuple[dict, baseline.Verdict, dict]:
    spec = RunSpec.from_key(key, **SIZING)
    out = baseline.checked_run(spec)
    entry, verdict = baseline.measure(spec, out)
    if verdict.inspection is not None:
        verdict = replace(verdict, inspection=verdict.inspection.render())
    return entry, verdict, fingerprint(out)


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


def traced_fingerprint(key: str) -> dict:
    """:func:`fingerprint` of the judged (traced) run of ``key``."""
    return _measured(key)[2]


def judged(key: str) -> baseline.Verdict:
    """The verdict on the cell ``key``."""
    return measured(key)[1]
