"""Machine-readable benchmark summaries (``python -m repro bench``).

The paper's tables render for humans; CI and regression tooling want
one JSON blob with the same numbers.  :func:`bench` runs the full mode
matrix per app — sequential, every applicable DSM opt level, message
passing, and XHPF where it accepts the program — and reports simulated
time, speedup over sequential, message count and data volume for each.
Runs go through :func:`repro.harness.experiments.app_runs`, so a bench
sweep shares its cache with any artifact tables generated in the same
process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps import all_apps
from repro.harness.experiments import APP_ORDER, app_runs
from repro.harness.schema import envelope, schema_id

SCHEMA = schema_id("bench")
PROTOCOL_SCHEMA = schema_id("bench-protocols")


def _entry(mode: str, outcome, seq_time: float) -> Dict:
    return {
        "mode": mode,
        "time_us": round(float(outcome.time), 3),
        "speedup": round(seq_time / outcome.time, 4),
        "messages": int(outcome.messages),
        "data_bytes": int(outcome.data_bytes),
    }


def bench(apps: Optional[Sequence[str]] = None, dataset: str = "tiny",
          nprocs: int = 4, page_size: int = 1024) -> Dict:
    """The bench payload: per-app, per-mode time/speedup/messages."""
    specs = all_apps()
    names = list(apps) if apps is not None else \
        [n for n in APP_ORDER if n in specs]
    payload: Dict = envelope(
        "bench",
        dataset=dataset,
        nprocs=nprocs,
        page_size=page_size,
        apps={},
    )
    for name in names:
        runs = app_runs(specs[name], dataset=dataset, nprocs=nprocs,
                        page_size=page_size)
        modes: List[Dict] = []
        for level in runs.dsm:
            modes.append(_entry(f"dsm:{level}", runs.dsm[level],
                                runs.seq_time))
        modes.append(_entry("mp", runs.pvme, runs.seq_time))
        if runs.xhpf is not None:
            modes.append(_entry("xhpf", runs.xhpf, runs.seq_time))
        payload["apps"][name] = {
            "seq_time_us": round(float(runs.seq_time), 3),
            "best_dsm_level": runs.best_level(),
            "modes": modes,
        }
    return payload


def bench_protocols(apps: Optional[Sequence[str]] = None,
                    dataset: str = "tiny", nprocs: int = 4,
                    page_size: int = 1024,
                    protocols: Optional[Sequence[str]] = None,
                    data_planes: Optional[Sequence[str]] = None) -> Dict:
    """Per-backend DSM comparison: app x opt x protocol x data plane.

    Runs every applicable opt level of every app under each registered
    coherence backend (mw-lrc, hlrc, adaptive, ...) and reports the
    three numbers a protocol study cares about — simulated time,
    message count, data volume — side by side.  ``data_planes`` adds
    the one-sided dimension: each ``onesided`` row also carries its
    message/latency delta against the matching two-sided cell.
    """
    from repro.harness.modes import applicable_levels
    from repro.harness.spec import RunSpec, run
    from repro.tm.coherence import protocols as registered

    specs = all_apps()
    names = list(apps) if apps is not None else \
        [n for n in APP_ORDER if n in specs]
    protos = list(protocols) if protocols else sorted(registered())
    planes = list(data_planes) if data_planes else ["twosided"]
    payload: Dict = envelope(
        "bench-protocols",
        dataset=dataset,
        nprocs=nprocs,
        page_size=page_size,
        protocols=protos,
        data_planes=planes,
        apps={},
    )
    for name in names:
        rows: List[Dict] = []
        for opt in applicable_levels(specs[name]):
            for proto in protos:
                base: Optional[Dict] = None
                for plane in planes:
                    out = run(RunSpec(
                        app=name, mode="dsm", dataset=dataset,
                        nprocs=nprocs, page_size=page_size, opt=opt,
                        protocol=proto,
                        data_plane=None if plane == "twosided"
                        else plane))
                    row = {
                        "opt": opt,
                        "protocol": proto,
                        "time_us": round(float(out.time), 3),
                        "messages": int(out.messages),
                        "data_bytes": int(out.data_bytes),
                        "data_plane": plane,
                    }
                    net = getattr(out, "net", None)
                    if net is not None and net.onesided_ops:
                        row["onesided_ops"] = int(net.onesided_ops)
                        row["onesided_batches"] = \
                            int(net.onesided_batches)
                        row["onesided_bytes"] = int(net.onesided_bytes)
                    if plane == "twosided":
                        base = row
                    elif base is not None:
                        row["delta_messages"] = \
                            row["messages"] - base["messages"]
                        row["delta_time_us"] = round(
                            row["time_us"] - base["time_us"], 3)
                    rows.append(row)
        payload["apps"][name] = {"runs": rows}
    return payload


def render_bench_protocols(payload: Dict) -> str:
    from repro.harness.report import render_table

    planes = payload["data_planes"]
    rows = []
    for name, app in payload["apps"].items():
        for r in app["runs"]:
            row = [name, r["opt"], r["protocol"], r["time_us"],
                   r["messages"], r["data_bytes"]]
            if len(planes) > 1:
                row.insert(3, r["data_plane"])
                dm = r.get("delta_messages")
                row.append("-" if dm is None else f"{dm:+d}")
            rows.append(row)
    headers = ["app", "opt", "protocol", "time_us", "messages", "bytes"]
    if len(planes) > 1:
        headers.insert(3, "plane")
        headers.append("+msgs")
    return render_table(
        f"Coherence-backend comparison (dataset={payload['dataset']}, "
        f"nprocs={payload['nprocs']})",
        headers, rows,
        note="same app results bit-for-bit; only the traffic differs")


def render_bench(payload: Dict) -> str:
    from repro.harness.report import render_table

    rows = []
    for name, app in payload["apps"].items():
        for m in app["modes"]:
            rows.append([name, m["mode"], m["time_us"], m["speedup"],
                         m["messages"], m["data_bytes"]])
    return render_table(
        f"Benchmark summary (dataset={payload['dataset']}, "
        f"nprocs={payload['nprocs']})",
        ["app", "mode", "time_us", "speedup", "messages", "bytes"],
        rows,
        note="speedup is sequential time / mode time")
