"""Exporters: JSONL event log and Chrome-trace timeline.

The Chrome-trace output loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev.  The simulated cluster maps onto one trace
*process* whose *threads* are the simulated processors — one track per
processor.  Spans become complete ("X") events, point events become
instants ("i"), and per-kind event counts are attached as metadata.

Timestamps are simulated microseconds, which is exactly the unit the
trace-event format expects.
"""

from __future__ import annotations

import json
from typing import List

#: The single trace-process id all tracks live under.
TRACE_PID = 0


def events_jsonl(telemetry) -> str:
    """Serialize every event (and span) as one JSON object per line.

    Events carry ``"rec": "event"``; spans carry ``"rec": "span"``.
    Lines are ordered by timestamp.
    """
    records = [dict(rec="event", **ev.as_dict())
               for ev in telemetry.bus.events]
    records += [dict(rec="span", ts=s.t0, dur=s.dur, **s.as_dict())
                for s in telemetry.spans.spans]
    records.sort(key=lambda r: (r["ts"], r["pid"]))
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def write_jsonl(telemetry, path) -> None:
    with open(path, "w") as fh:
        fh.write(events_jsonl(telemetry))
        fh.write("\n")


def telemetry_from_jsonl(path) -> "object":
    """Rebuild a :class:`~repro.telemetry.core.Telemetry` from a JSONL
    export — the inverse of :func:`write_jsonl`.

    Events repopulate the bus and spans repopulate the span log, so the
    offline analyzers (:mod:`repro.inspect`) run on the reloaded object
    exactly as they would on the live one.  The end-of-run counters
    (``metrics_total``) are not serialized; args dicts come back with
    JSON lists where the emitters used tuples (consumers accept both,
    see :func:`unpack_sections` in
    :mod:`repro.telemetry.events`).
    """
    from repro.errors import ReproError
    from repro.telemetry.core import Telemetry

    tel = Telemetry(events=True, spans=True)
    nprocs = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            rec = r.get("rec")
            if rec == "event":
                tel.bus.emit(r["ts"], r["pid"], r["kind"],
                             r.get("epoch", 0), r.get("args"))
            elif rec == "span":
                tel.spans.record(r["pid"], r["name"], r["t0"], r["t1"],
                                 r.get("epoch", 0))
            else:
                raise ReproError(
                    f"{path}:{lineno}: unknown record type {rec!r} "
                    f"(expected 'event' or 'span')")
            nprocs = max(nprocs, int(r["pid"]) + 1)
    tel.nprocs = nprocs
    return tel


# ----------------------------------------------------------------------


def _category(kind: str) -> str:
    return kind.split(".", 1)[0] if "." in kind else kind


def chrome_trace(telemetry) -> dict:
    """Build the Chrome trace-event JSON object for one run."""
    traces: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": TRACE_PID, "tid": 0,
        "args": {"name": "repro simulated cluster"},
    }]
    for pid in telemetry.pids():
        traces.append({
            "ph": "M", "name": "thread_name", "pid": TRACE_PID,
            "tid": pid, "args": {"name": f"P{pid}"},
        })
        traces.append({
            "ph": "M", "name": "thread_sort_index", "pid": TRACE_PID,
            "tid": pid, "args": {"sort_index": pid},
        })
    for s in telemetry.spans.spans:
        traces.append({
            "ph": "X", "name": s.name, "cat": _category(s.name),
            "pid": TRACE_PID, "tid": s.pid, "ts": s.t0, "dur": s.dur,
            "args": {"epoch": s.epoch},
        })
    for ev in telemetry.bus.events:
        entry = {
            "ph": "i", "name": ev.kind, "cat": _category(ev.kind),
            "pid": TRACE_PID, "tid": ev.pid, "ts": ev.ts, "s": "t",
            "args": dict(ev.args or {}, epoch=ev.epoch),
        }
        traces.append(entry)
    return {
        "traceEvents": traces,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry",
            "event_counts": telemetry.counts(),
            "metrics_total": telemetry.metrics_total,
        },
    }


def write_chrome_trace(telemetry, path) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(telemetry), fh)
