"""Unified telemetry: structured events and phase profiling.

The paper's whole argument is quantitative — message counts, diff and
twin counts, fault counts, barrier wait times (Table 2, Figures 5-7).
This package gives every run a single observability surface:

* :class:`EventBus` — a structured protocol-event log with near-zero
  overhead when disabled;
* :class:`SpanLog` — span-based phase profiling (compute vs. protect
  vs. diff vs. wait), per barrier epoch;
* exporters — JSONL event log and Chrome-trace timeline with one track
  per simulated processor (``chrome://tracing`` / Perfetto).

See ``docs/observability.md`` for the event taxonomy and the mapping
from the paper's Table 2 columns to metric names.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.events import Event, EventBus
from repro.telemetry.export import (chrome_trace, events_jsonl,
                                    telemetry_from_jsonl,
                                    write_chrome_trace, write_jsonl)
from repro.telemetry.spans import Span, SpanLog

__all__ = [
    "Telemetry", "Event", "EventBus", "Span", "SpanLog",
    "chrome_trace", "events_jsonl", "telemetry_from_jsonl",
    "write_chrome_trace", "write_jsonl",
]
