"""Machine-readable benchmark summaries (``python -m repro bench``).

The paper's tables render for humans; CI and regression tooling want
one JSON blob with the same numbers.  Both commands here are filters
over the one run matrix (:func:`repro.harness.modes.run_matrix`) and
emit one payload shape: ``cells``, mapping each cell's
:attr:`~repro.harness.spec.RunSpec.key` to its
:meth:`~repro.harness.outcome.RunOutcome.record` -- the entries
``python -m repro check`` gates, number for number.  :func:`bench` is
the paper's mode matrix on the default backend (sequential, every
applicable DSM opt level, message passing, XHPF where it accepts the
program); :func:`bench_protocols` the DSM cells of the chosen backends
and data planes.  Speedups, the best DSM level and one-sided deltas are
derived when a table is rendered, not stored.  Runs are shared with any
artifact tables generated in the same process
(:func:`repro.harness.experiments.cached_run`).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Dict, Optional, Sequence

from repro.capability import Cell
from repro.harness.experiments import cached_run
from repro.harness.modes import SIZING, run_matrix
from repro.harness.report import render_table
from repro.harness.schema import envelope
from repro.harness.spec import RunSpec


def _payload(matrix, sizing) -> Dict:
    return envelope("bench", **{**SIZING, **sizing},
                    cells={spec.key: cached_run(spec).record()
                           for spec in matrix})


def bench(apps: Optional[Sequence[str]] = None,
          data_planes: Optional[Sequence[str]] = None, **sizing) -> Dict:
    """The mode matrix per app: seq, each DSM level, mp, xhpf.

    ``data_planes`` picks the plane(s) of the rows (default two-sided;
    mp and xhpf have no other); the sequential run every speedup
    divides by is measured regardless.
    """
    return _payload(chain(
        run_matrix(apps, modes=("seq",), **sizing),
        run_matrix(apps, modes=("dsm", "mp", "xhpf"), protocols=[None],
                   data_planes=data_planes or [None], **sizing)), sizing)


def bench_protocols(apps: Optional[Sequence[str]] = None,
                    protocols: Optional[Sequence[str]] = None,
                    data_planes: Optional[Sequence[str]] = None,
                    **sizing) -> Dict:
    """Per-backend DSM comparison: app x opt x protocol x data plane.

    Every applicable opt level of every app under each registered
    coherence backend (mw-lrc, hlrc, adaptive, ...; ``protocols``
    narrows them), on the two-sided plane unless ``data_planes`` says
    otherwise.  Same app results bit-for-bit; only the traffic differs.
    """
    from repro.tm.coherence import protocols as registered

    return _payload(run_matrix(
        apps, modes=("dsm",), protocols=protocols or sorted(registered()),
        data_planes=data_planes or [None], **sizing), sizing)


def _title(what: str, payload: Dict) -> str:
    return (f"{what} (dataset={payload['dataset']}, "
            f"nprocs={payload['nprocs']})")


def render_bench(payload: Dict) -> str:
    cells = payload["cells"]
    rows = []
    for key, rec in cells.items():
        spec = RunSpec.from_key(key)
        if spec.mode == "seq":
            continue    # the denominator, not a row
        mode = spec.mode + (f":{spec.opt}" if spec.opt else "")
        if spec.data_plane:
            mode += f"+{spec.data_plane}"
        seq = cells[RunSpec(app=spec.app, mode="seq").key]
        rows.append([spec.app, mode, round(rec["time_us"], 3),
                     round(seq["time_us"] / rec["time_us"], 4),
                     rec["messages"], rec["data_bytes"]])
    return render_table(
        _title("Benchmark summary", payload),
        ["app", "mode", "time_us", "speedup", "messages", "bytes"],
        rows,
        note="speedup is sequential time / mode time")


def render_bench_protocols(payload: Dict) -> str:
    cells = payload["cells"]
    specs = {key: RunSpec.from_key(key) for key in cells}
    both = len({s.data_plane for s in specs.values()}) > 1
    rows = []
    for key, rec in cells.items():
        spec = specs[key]
        row = [spec.app, spec.opt, spec.protocol or Cell.protocol,
               round(rec["time_us"], 3), rec["messages"],
               rec["data_bytes"]]
        if both:
            row.insert(3, spec.data_plane or Cell.data_plane)
            twosided = cells.get(replace(spec, data_plane=None).key) \
                if spec.data_plane else None
            row.append("-" if twosided is None else
                       f"{rec['messages'] - twosided['messages']:+d}")
        rows.append(row)
    headers = ["app", "opt", "protocol", "time_us", "messages", "bytes"]
    if both:
        headers.insert(3, "plane")
        headers.append("+msgs")
    return render_table(
        _title("Coherence-backend comparison", payload), headers, rows,
        note="same app results bit-for-bit; only the traffic differs")
