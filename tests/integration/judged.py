"""Each run-matrix cell judged at most once per test session.

:func:`repro.inspect.baseline.measure` runs a cell once, traced, and
asks it every question ``repro check`` has.  The per-cell gate, the
backend conformance tests, the inspector sweep and the sanitizer's
clean matrix all read that one verdict, plus the two reports it was
drawn from, instead of running the cell again.
"""

import functools
from dataclasses import dataclass
from typing import List, Optional
from unittest import mock

import repro.sanitizer
from repro.harness import RunSpec
from repro.harness.modes import SIZING
from repro.inspect import InspectReport, baseline

# The real functions, whatever a test later monkeypatches.
_measure = baseline.measure
_build = InspectReport.build
_sanitize_events = repro.sanitizer.sanitize_events


@dataclass(frozen=True)
class Judged:
    """One cell's ``measure`` result and the reports behind it."""

    entry: dict
    problems: List[str]
    #: The inspector's rendered report (``None`` on ``seq``).
    inspection: Optional[str]
    #: The sanitizer's report (``None`` off the DSM).
    sanitized: Optional[object]

    def found(self, oracle: str) -> List[str]:
        """What one oracle (``result``, ``inspector``, ``sanitizer``)
        found wrong."""
        return [p for p in self.problems if p.startswith(f"{oracle}: ")]


def cell(app: str, mode: str = "dsm", opt: Optional[str] = None,
         protocol: Optional[str] = None) -> str:
    """The run-matrix key of one cell at the matrix's sizing."""
    return RunSpec(app=app, mode=mode, opt=opt, protocol=protocol,
                   **SIZING).key


@functools.lru_cache(maxsize=None)
def judged(key: str) -> Judged:
    """``measure`` of the cell ``key`` at the matrix's sizing."""
    inspected, sanitized = [], []

    def build(*args, **kwargs):
        inspected.append(_build(*args, **kwargs))
        return inspected[-1]

    def sanitize_events(*args, **kwargs):
        sanitized.append(_sanitize_events(*args, **kwargs))
        return sanitized[-1]

    with mock.patch.object(InspectReport, "build", build), \
            mock.patch.object(repro.sanitizer, "sanitize_events",
                              sanitize_events):
        entry, problems = _measure(RunSpec.from_key(key, **SIZING))
    return Judged(entry, problems,
                  inspected[0].render() if inspected else None,
                  sanitized[0] if sanitized else None)
