"""The one checked run per cell, and the baselines it is gated on.

The simulator is deterministic, so every protocol counter — faults,
twins, diffs, invalidations, messages, bytes — is exactly reproducible
for a given (app, mode, opt, dataset, nprocs, page size).  ``python -m
repro check`` runs every unperturbed cell of the run matrix
(:func:`repro.harness.modes.run_matrix`) once, traced, and asks that
one run every question the repo has about it (:func:`measure`,
through :func:`judge`):

1. its record equals the checked-in entry under
   ``benchmarks/baselines/``, keyed by its
   :attr:`~repro.harness.spec.RunSpec.key` (:func:`compare_entry`: any
   drifted integer fails; only simulated *time* is compared with a
   relative tolerance, :data:`TIME_RTOL`, since cost-model refactors
   may reorder float accumulation without changing the protocol);
2. the app's checked arrays equal its numpy reference — the compiler's
   hints are sound only if the optimized run computes the same answer
   (a perturbed run, judged by the sweeps, must equal its unperturbed
   twin's arrays instead, bit for bit);
3. off ``seq``, the inspector's reconstruction reconciles with the
   run's own counters (:meth:`InspectReport.reconcile
   <repro.inspect.report.InspectReport.reconcile>`);
4. when the run recorded access events (``check`` records them on the
   DSM), the sanitizer, fed that stream offline, finds no race or hint
   violation and counts the run's sync edges.

``python -m repro check --update-baselines`` rewrites the file after an
intentional protocol change; the diff then documents exactly which
counters moved.  Oracles 2-4 still fail it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.capability import cell_of
from repro.harness.modes import run_matrix
from repro.harness.spec import RunSpec, run
from repro.inspect.report import TIME_RTOL, InspectReport
from repro.telemetry import Telemetry

#: Tolerances a result array must meet against the numpy reference.
RESULT_RTOL, RESULT_ATOL = 1e-9, 1e-12

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
# The judge, and the checked run.
# ----------------------------------------------------------------------

#: The oracles :func:`judge` asks, in the order ``check`` reports them.
ORACLES = ("result", "inspector", "sanitizer")


@dataclass
class Verdict:
    """What each oracle found wrong with one finished run (empty:
    nothing), and the reports the last two drew it from."""

    result: List[str] = field(default_factory=list)
    inspector: List[str] = field(default_factory=list)
    sanitizer: List[str] = field(default_factory=list)
    #: The inspector's report (``None`` on ``seq``).
    inspection: Optional[InspectReport] = field(default=None,
                                                compare=False)
    #: The sanitizer's report (``None``: the run recorded no access
    #: events).
    sanitized: Optional[object] = field(default=None, compare=False)

    @property
    def problems(self) -> List[str]:
        """Every oracle's problems, each under its oracle's name."""
        return [f"{oracle}: {p}" for oracle in ORACLES
                for p in getattr(self, oracle)]


def judge(spec: RunSpec, out, reference=None) -> Verdict:
    """Ask the finished run ``out`` of ``spec`` oracles 2-4 of the
    module docstring.  With ``reference`` (an unperturbed twin's
    arrays), the result oracle requires those arrays, bit for bit,
    instead of the numpy reference's within tolerance.  The sanitizer
    runs exactly when the run recorded access events."""
    verdict = Verdict(result=_diverging(spec, out.arrays, reference))
    # The sanitizer first: its shadow state is given back before the
    # inspector's analyses are built.
    if out.telemetry is not None and out.telemetry.access_events:
        from repro.sanitizer.replay import sanitize_outcome

        rep = verdict.sanitized = sanitize_outcome(spec, out)
        verdict.sanitizer = [f"[{f.category}:{f.kind}] {f.detail}"
                             for f in rep.findings] + rep.problems
    if spec.mode != "seq":
        verdict.inspection = InspectReport.build(out)
        verdict.inspector = verdict.inspection.reconcile()
    return verdict


def _diverging(spec: RunSpec, arrays, reference) -> List[str]:
    """Oracle 2: each checked array against the app's numpy reference,
    or every array against ``reference`` exactly."""
    if reference is None:
        app = spec.resolve_app()
        names, want = app.check_arrays, app.reference(spec.resolve_params())
        same = partial(np.isclose, rtol=RESULT_RTOL, atol=RESULT_ATOL)
    else:
        names, want = sorted(set(reference) | set(arrays)), reference
        same = np.equal
    problems = []
    for name in names:
        got = arrays.get(name)
        if got is None or name not in want:
            problems.append(f"array {name!r} missing")
            continue
        close = same(got, want[name])
        if not close.all():
            problems.append(f"array {name!r}: "
                            f"{int((~close).sum())}/{got.size} elements "
                            f"diverge")
    return problems


def checked_run(spec: RunSpec):
    """The one run of a cell that :func:`measure` judges: traced, with
    access events on the DSM."""
    return run(spec, telemetry=Telemetry(access_events=spec.mode == "dsm"))


def measure(spec: RunSpec, out=None) -> Tuple[dict, Verdict]:
    """Run one cell once, traced (:func:`checked_run`; ``out`` if the
    caller made that run), and judge it: its entry (its record under
    the configuration that produced it) and its :class:`Verdict`.
    Oracle 1 needs the stored entry: :func:`compare_entry`."""
    if out is None:
        out = checked_run(spec)
    config = {f: getattr(spec, f) for f in CONFIG_FIELDS
              if getattr(spec, f) is not None}
    return {"config": config, **out.record()}, judge(spec, out)


# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------

def compare_entry(key: str, expected: dict, actual: dict) -> List[str]:
    """Mismatch descriptions for one baseline entry (empty = match).

    Integer counts must match exactly; ``time_us`` within
    :data:`TIME_RTOL`.
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
        if abs(t_act - t_exp) > TIME_RTOL * max(1.0, abs(t_exp)):
            problems.append(f"{key}: time_us expected {t_exp!r}, got "
                            f"{t_act!r} (rtol {TIME_RTOL})")
    return problems


def compare(expected: Dict[str, dict],
            actual: Dict[str, dict]) -> List[str]:
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
                                          actual[key]))
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
        problem, under its cell key (what ``python -m repro check``
        prints)."""
        lines = [f"  {key:<32} t={entry['time_us']:.1f}us "
                 f"messages={entry['messages']} "
                 f"bytes={entry['data_bytes']}"
                 for key, entry in sorted(self.measured.items())]
        if self.ok:
            lines.append(f"OK: {len(self.measured)} baseline entries "
                         f"match")
        else:
            lines.append(f"FAIL: {len(self.problems)} problems")
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
          update: bool = False,
          protocol: Optional[str] = None,
          data_plane: Optional[str] = None) -> CheckResult:
    """Run and judge the matrix; compare (or rewrite) the baselines.

    The matrix is :func:`repro.harness.modes.run_matrix` -- every
    unperturbed cell -- unless one is passed; each cell runs once
    (:func:`measure`).  ``protocol`` restricts the run to one backend's
    entries, and ``data_plane`` (``twosided`` / ``onesided``) to one
    data plane's; an update then rewrites only those, leaving the other
    entries untouched (per-backend / per-plane ``--update-baselines``),
    and is still not ``ok`` if another oracle found a problem.
    """
    if matrix is None:
        matrix = run_matrix(
            protocols=protocol and [protocol],
            data_planes=data_plane and [data_plane])
    measured: Dict[str, dict] = {}
    found: List[str] = []
    for spec in matrix:
        measured[spec.key], verdict = measure(spec)
        found += [f"{spec.key}: {p}" for p in verdict.problems]
    path = default_path() if path is None else Path(path)
    stored = load(path) if path.exists() else None
    if update:
        kept = {k: v for k, v in (stored or {}).items()
                if not selected(k, protocol, data_plane)}
        save({**kept, **measured}, path)
        return CheckResult(ok=not found, problems=found,
                           measured=measured, updated=True)
    if stored is None:
        return CheckResult(
            ok=False, measured=measured,
            problems=[f"no baselines at {path}; run "
                      "'python -m repro check --update-baselines'",
                      *found])
    expected = {k: v for k, v in stored.items()
                if selected(k, protocol, data_plane)}
    # One cell's problems together, whichever oracle found them.
    problems = sorted(compare(expected, measured) + found,
                      key=lambda p: p.split(": ", 1)[0])
    return CheckResult(ok=not problems, problems=problems,
                       measured=measured)
