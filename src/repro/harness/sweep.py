"""The one perturbed-run driver behind the chaos, recover and elastic sweeps.

Every sweep proves the same thing the same way: run an app/opt pair
unperturbed, derive a :class:`~repro.faults.FaultPlan` (from a seeded
label, from a schedule mined out of the base run's telemetry, or from
an explicit plan), run the pair again under that plan with telemetry
on, and require the results to be *bit-identical* with every invariant
checker silent.  What a perturbation may change is cost, which each
sweep reads back into its own case dataclass.

``harness/chaos.py``, ``recover.py`` and ``elastic.py`` are *policies*
over this driver: each builds one :class:`Sweep` (labels, miner, case
class, cost reader, table columns, verdict words) and binds its
``run_case`` / ``sweep`` / ``render_*`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps import all_apps
from repro.capability import cell_of, require
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.harness import report
from repro.harness.modes import OPT_LEVELS, SIZING, run_matrix
from repro.harness.runner import layout_for
from repro.harness.schema import envelope
from repro.harness.spec import RunSpec, run
from repro.telemetry import Telemetry


def arrays_identical(base: Dict[str, np.ndarray],
                     perturbed: Dict[str, np.ndarray]) -> bool:
    return set(base) == set(perturbed) and all(
        np.array_equal(base[name], perturbed[name]) for name in base)


class Case:
    """The verdict every sweep's case dataclass shares.

    Subclasses are dataclasses with (at least) ``app``, ``opt``,
    ``identical``, ``violations``, ``error``, ``base_time`` and
    ``time``; the class attributes here stand in for fields a sweep
    does not have.  One that has ``realized`` also says what an
    ``unrealized`` case reports as its failure detail.
    """

    realized = True     # the perturbation actually fired
    findings = ()       # sanitizer findings

    @property
    def label(self) -> str:
        return self.schedule

    @property
    def as_planned(self) -> bool:
        return self.realized

    @property
    def status(self) -> str:
        if self.error is not None:
            return "ERROR"
        if not self.identical:
            return "DIVERGED"
        if not self.as_planned:
            return "UNREALIZED"
        if self.violations or self.findings:
            return "INVARIANT"
        return "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def added_time(self) -> float:
        return self.time - self.base_time

    @property
    def detail(self) -> str:
        """Why a failing case failed."""
        if self.error is not None or not self.identical:
            return self.error or "result diverged"
        if not self.as_planned:
            return self.unrealized
        return "; ".join([*self.violations, *self.findings])


@dataclass(frozen=True)
class Sweep:
    """One sweep's policy, and the driver methods that run it."""

    #: Subcommand name, ``repro-<kind>/1`` envelope kind, verdict word.
    kind: str
    #: The :data:`repro.capability.PERTURBATIONS` entry every case applies.
    perturbation: str
    #: The named cases, in sweep order, and the CLI flag selecting them.
    labels: Tuple[str, ...]
    flag: str
    #: ``(app, opt, label, seed, plan) -> (case, FaultPlan)``.  ``label``
    #: is a mined schedule object when ``plan`` is None and the sweep
    #: mines; otherwise a name (which only labels an explicit ``plan``).
    start: Callable
    #: ``(case, base, out)``: read the perturbed run's cost into ``case``.
    costs: Callable
    title: str
    headers: Sequence[str]
    row: Callable               # case -> table row
    note: str
    survived: str               # "<n> <survived> bit-identically"
    #: ``(base, nprocs, names=) -> schedules`` mined from the traced base
    #: run; the perturbed run is then sanitized as well as inspected.
    #: ``None``: the labels name seeded plans, nothing needs the base
    #: run's trace or the access stream.
    mine: Optional[Callable] = None

    @property
    def mined(self) -> bool:
        return self.mine is not None

    def _require(self, protocol, data_plane) -> None:
        """Raise, before any run, if the sweep's cell is a hole of the
        capability table."""
        require(cell_of("dsm", protocol, data_plane,
                        (self.perturbation,)))

    def run_case(self, app: str, opt: Optional[str], label, *,
                 seed: int = 0, base=None, inspect: bool = True,
                 plan: Optional[FaultPlan] = None,
                 protocol: Optional[str] = None,
                 data_plane: Optional[str] = None, **sizing):
        """Run one app/opt pair unperturbed and perturbed; compare bits.

        ``label`` names the case (or, for a mined sweep, may be an
        already mined schedule object); ``base`` is a shared unperturbed
        outcome (traced, for a mined sweep).  Pass ``plan`` to run an
        explicit declarative :class:`FaultPlan` (e.g. loaded with
        :func:`repro.faults.plan_from_json`) instead; ``label`` then
        only labels the case.  ``sizing`` overrides
        :data:`~repro.harness.modes.SIZING`.
        """
        self._require(protocol, data_plane)
        spec = RunSpec(app=app, mode="dsm", opt=opt, protocol=protocol,
                       data_plane=data_plane, **{**SIZING, **sizing})
        if base is None:
            base = run(spec, telemetry=self.mined)
        if plan is None and self.mined and isinstance(label, str):
            mined = self.mine(base, spec.nprocs, names=(label,))
            if not mined:
                raise ReproError(
                    f"schedule {label!r} does not apply to {app} "
                    f"(no such wait in the fault-free trace)")
            label = mined[0]
        case, plan = self.start(app, opt, label, seed, plan)
        case.base_time = base.time
        tel = Telemetry(access_events=self.mined)
        san = None
        if self.mined:
            from repro.sanitizer import Sanitizer
            san = Sanitizer(
                layout_for(base.program, page_size=spec.page_size),
                spec.nprocs, opt=spec.resolve_opt())
            san.attach(tel.bus)
        try:
            out = run(spec, faults=plan, telemetry=tel)
        except Exception as exc:
            case.error = f"{type(exc).__name__}: {exc}"
            return case
        case.time = out.time
        case.identical = arrays_identical(base.arrays, out.arrays)
        self.costs(case, base, out)
        if san is not None:
            rep = san.finish()
            case.findings = [f"[{f.category}:{f.kind}] {f.detail}"
                             for f in rep.findings]
            case.findings += rep.reconcile(out)
        if inspect:
            from repro.inspect import InspectReport
            case.violations = InspectReport.build(
                out, title=f"{app}/dsm/{opt}/{case.label}").reconcile()
        return case

    def sweep(self, apps: Optional[Sequence[str]] = None,
              opts: Optional[Sequence[str]] = None,
              labels: Optional[Sequence[str]] = None, *,
              seed: int = 0, inspect: bool = True,
              plan: Optional[FaultPlan] = None,
              protocol: Optional[str] = None,
              data_plane: Optional[str] = None, **sizing) -> List:
        """The run matrix's DSM cells on one backend and plane (apps and
        opt levels in name order unless given) x labels, one shared base
        run per cell.

        With an explicit ``plan``, each pair runs that one plan
        (labelled "plan") instead of the named or mined cases.
        """
        self._require(protocol, data_plane)
        cases = []
        for spec in run_matrix(
                sorted(apps or all_apps()),
                opts if opts is not None else sorted(OPT_LEVELS),
                modes=("dsm",), protocols=[protocol],
                data_planes=[data_plane], **sizing):
            base = run(spec, telemetry=self.mined)
            if plan is not None:
                todo: Sequence = ("plan",)
            elif self.mined:
                todo = self.mine(base, spec.nprocs, names=labels)
            else:
                todo = sorted(labels) if labels else self.labels
            for label in todo:
                cases.append(self.run_case(
                    spec.app, spec.opt, label, seed=seed, base=base,
                    inspect=inspect, plan=plan, protocol=protocol,
                    data_plane=data_plane, **sizing))
        return cases

    def render(self, cases: Sequence[Case]) -> str:
        """Human-readable sweep table plus a one-line verdict."""
        table = report.render_table(self.title, list(self.headers),
                                    [self.row(c) for c in cases],
                                    note=self.note)
        bad = [c for c in cases if not c.ok]
        word = self.kind.upper()
        verdict = (f"{word} OK: {len(cases)} {self.survived} "
                   f"bit-identically" if not bad else
                   f"{word} FAIL: {len(bad)} of {len(cases)} cases "
                   f"diverged")
        return "\n".join([table, verdict] + [
            f"  ! {c.app}/{c.opt}/{c.label}: {c.detail}" for c in bad])

    def payload(self, cases: Sequence[Case], seed: int = 0,
                **header) -> dict:
        """The ``repro-<kind>/1`` envelope of a finished sweep."""
        head = header if self.mined else {"seed": seed, **header}
        return envelope(self.kind, **head,
                        cases=[c.as_dict() for c in cases])
