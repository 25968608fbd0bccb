"""Regression-gated protocol baselines (Table 2-style counts).

The simulator is deterministic, so every protocol counter — faults,
twins, diffs, invalidations, messages, bytes — is exactly reproducible
for a given (app, mode, opt, dataset, nprocs, page size).  That makes
the counts usable as CI regression gates: ``python -m repro check``
re-runs every unperturbed cell of the run matrix
(:func:`repro.harness.modes.run_matrix`) and compares against the
checked-in JSON under ``benchmarks/baselines/``, one entry per cell
under its :attr:`~repro.harness.spec.RunSpec.key`; any drifted integer
fails the build.  Only
simulated *time* is compared with a tolerance (``rtol``), since cost-
model refactors may reorder float accumulation without changing the
protocol.

``python -m repro check --update-baselines`` rewrites the file after an
intentional protocol change; the diff then documents exactly which
counters moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.capability import cell_of
from repro.harness.modes import run_matrix
from repro.harness.spec import RunSpec, run

#: Relative tolerance for simulated time (floats only).
TIME_RTOL = 1e-6

#: The :class:`RunSpec` fields an entry's ``config`` block records
#: (those that were set).
CONFIG_FIELDS = ("app", "mode", "opt", "dataset", "nprocs", "page_size",
                 "protocol", "data_plane")


def default_path() -> Path:
    return (Path(__file__).resolve().parents[3]
            / "benchmarks" / "baselines" / "protocol.json")


def selected(key: str, protocol: Optional[str] = None,
             data_plane: Optional[str] = None) -> bool:
    """Whether a baseline key belongs to this backend / data plane
    (``None``: any)."""
    spec = RunSpec.from_key(key)
    cell = cell_of(spec.mode, spec.protocol, spec.data_plane)
    return (protocol in (None, cell.protocol)
            and data_plane in (None, cell.data_plane))


# ----------------------------------------------------------------------
# Collection.
# ----------------------------------------------------------------------

def measure(spec: RunSpec) -> dict:
    """Run one cell (untraced -- counters only): its record, under the
    configuration that produced it."""
    config = {f: getattr(spec, f) for f in CONFIG_FIELDS
              if getattr(spec, f) is not None}
    return {"config": config, **run(spec).record()}


# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------

def compare_entry(key: str, expected: dict, actual: dict,
                  rtol: float = TIME_RTOL) -> List[str]:
    """Mismatch descriptions for one baseline entry (empty = match).

    Integer counts must match exactly; ``time_us`` within ``rtol``.
    """
    problems: List[str] = []
    for name in ("messages", "data_bytes"):
        if expected.get(name) != actual.get(name):
            problems.append(f"{key}: {name} expected "
                            f"{expected.get(name)}, got "
                            f"{actual.get(name)}")
    for scope in ("counts", "messages_by_kind", "onesided"):
        exp = expected.get(scope, {})
        act = actual.get(scope, {})
        for name in sorted(set(exp) | set(act)):
            if exp.get(name, 0) != act.get(name, 0):
                problems.append(
                    f"{key}: {scope}.{name} expected "
                    f"{exp.get(name, 0)}, got {act.get(name, 0)}")
    t_exp, t_act = expected.get("time_us"), actual.get("time_us")
    if t_exp is not None and t_act is not None:
        if abs(t_act - t_exp) > rtol * max(1.0, abs(t_exp)):
            problems.append(f"{key}: time_us expected {t_exp!r}, got "
                            f"{t_act!r} (rtol {rtol})")
    return problems


def compare(expected: Dict[str, dict], actual: Dict[str, dict],
            rtol: float = TIME_RTOL) -> List[str]:
    problems: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            problems.append(f"{key}: present in baselines but not "
                            "measured")
        elif key not in expected:
            problems.append(f"{key}: measured but missing from "
                            "baselines (run --update-baselines)")
        else:
            problems.extend(compare_entry(key, expected[key],
                                          actual[key], rtol))
    return problems


# ----------------------------------------------------------------------
# The check driver.
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    ok: bool
    problems: List[str] = field(default_factory=list)
    measured: Dict[str, dict] = field(default_factory=dict)
    updated: bool = False

    def render(self) -> str:
        """One line per measured entry, then the verdict and every
        mismatch (what ``python -m repro check`` prints)."""
        lines = [f"  {key:<32} t={entry['time_us']:.1f}us "
                 f"messages={entry['messages']} "
                 f"bytes={entry['data_bytes']}"
                 for key, entry in sorted(self.measured.items())]
        if self.ok:
            lines.append(f"OK: {len(self.measured)} baseline entries "
                         f"match")
        else:
            lines.append(f"FAIL: {len(self.problems)} mismatches")
            lines += [f"  ! {p}" for p in self.problems]
        return "\n".join(lines)


def load(path: Optional[Path] = None) -> Dict[str, dict]:
    path = default_path() if path is None else Path(path)
    with open(path) as fh:
        return json.load(fh)


def save(baselines: Dict[str, dict],
         path: Optional[Path] = None) -> Path:
    path = default_path() if path is None else Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(baselines, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def check(path: Optional[Path] = None,
          matrix: Optional[Iterable[RunSpec]] = None,
          update: bool = False, rtol: float = TIME_RTOL,
          protocol: Optional[str] = None,
          data_plane: Optional[str] = None) -> CheckResult:
    """Re-measure the matrix and compare (or rewrite) the baselines.

    The matrix is :func:`repro.harness.modes.run_matrix` -- every
    unperturbed cell -- unless one is passed.  ``protocol`` restricts
    the run to one backend's entries, and ``data_plane`` (``twosided``
    / ``onesided``) to one data plane's; an update then rewrites only
    those, leaving the other entries untouched (per-backend / per-plane
    ``--update-baselines``).
    """
    if matrix is None:
        matrix = run_matrix(
            protocols=protocol and [protocol],
            data_planes=data_plane and [data_plane])
    measured = {spec.key: measure(spec) for spec in matrix}
    path = default_path() if path is None else Path(path)
    stored = load(path) if path.exists() else None
    if update:
        kept = {k: v for k, v in (stored or {}).items()
                if not selected(k, protocol, data_plane)}
        save({**kept, **measured}, path)
        return CheckResult(ok=True, measured=measured, updated=True)
    if stored is None:
        return CheckResult(
            ok=False, measured=measured,
            problems=[f"no baselines at {path}; run "
                      "'python -m repro check --update-baselines'"])
    expected = {k: v for k, v in stored.items()
                if selected(k, protocol, data_plane)}
    problems = compare(expected, measured, rtol)
    return CheckResult(ok=not problems, problems=problems,
                       measured=measured)
