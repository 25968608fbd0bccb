"""Cross-mode verification: every system must agree with the reference.

Library form of the invariant the test suite enforces, usable by
downstream code when adding applications or modifying the protocol::

    from repro.harness.verify import verify_app
    report = verify_app(get_app("jacobi"), dataset="tiny", nprocs=4)
    assert report.ok, report.failures
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.apps.base import AppSpec
from repro.errors import HpfError
from repro.harness.modes import run_matrix
from repro.harness.spec import RunSpec, run


@dataclass
class VerifyReport:
    """Outcome of verifying one application across all modes."""

    app: str
    dataset: str
    nprocs: int
    checked: List[str] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, mode: str, error: Optional[str]) -> None:
        self.checked.append(mode)
        if error is not None:
            self.failures[mode] = error

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"{self.app}/{self.dataset} x{self.nprocs}: {status} "
                 f"({len(self.checked)} modes)"]
        for mode, err in self.failures.items():
            lines.append(f"  {mode}: {err}")
        return "\n".join(lines)


def _compare(arrays: Dict[str, np.ndarray], ref: Dict[str, np.ndarray],
             names: List[str]) -> Optional[str]:
    for name in names:
        got = arrays.get(name)
        if got is None:
            return f"array {name!r} missing"
        if not np.allclose(got, ref[name], rtol=1e-9, atol=1e-12):
            bad = int((~np.isclose(got, ref[name])).sum())
            return f"array {name!r}: {bad}/{got.size} elements diverge"
    return None


def verify_app(app: AppSpec, dataset: str = "tiny", nprocs: int = 4,
               page_size: int = 256,
               gc_threshold: Optional[int] = None) -> VerifyReport:
    """Run every mode of one application and compare against numpy."""
    report = VerifyReport(app.name, dataset, nprocs)
    ref = app.reference(dict(app.datasets[dataset].params))
    sizing = dict(dataset=dataset, nprocs=nprocs, page_size=page_size)
    for spec in run_matrix([app], modes=("seq", "dsm", "mp", "xhpf"),
                           protocols=[None], data_planes=[None],
                           **sizing):
        label = {"dsm": f"dsm:{spec.opt}", "mp": "pvme"}.get(
            spec.mode, spec.mode)
        try:
            out = run(spec, gc_threshold=gc_threshold)
        except HpfError as exc:
            report.record(label, f"unexpected refusal: {exc}")
        else:
            report.record(label,
                          _compare(out.arrays, ref, app.check_arrays))
    if not app.xhpf_ok:     # no xhpf cell: the refusal is the contract
        try:
            run(RunSpec(app=app, mode="xhpf", **sizing))
            report.record("xhpf", "expected HpfError, got a result")
        except HpfError:
            report.record("xhpf", None)
    return report


def verify_all(dataset: str = "tiny", nprocs: int = 4) -> List[VerifyReport]:
    from repro.apps import all_apps
    return [verify_app(app, dataset, nprocs)
            for app in all_apps().values()]
