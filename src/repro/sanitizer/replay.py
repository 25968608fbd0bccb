"""Run-and-sanitize drivers plus JSONL trace replay.

Every verdict is one offline pass over a recorded stream
(:func:`sanitize_events`), which refuses a stream with no access events:
a clean verdict on nothing proves nothing.  ``sanitize_run`` is the
front door: run one app on the DSM with access events enabled, then
sanitize the finished run (:func:`sanitize_outcome`, the step
:func:`repro.inspect.baseline.judge` takes too).  ``sanitize_jsonl``
replays a ``telemetry.write_jsonl`` file reloaded by
``Telemetry.from_jsonl`` against the layout of the same app.

A JSONL file orders records by ``(ts, pid)``, which is compatible with
the tracker's causality assumption: every happens-before edge in the
simulation crosses the network with positive latency, so a join event
always carries a strictly larger timestamp than the clock snapshot it
joins with; within one processor the sort is stable.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.telemetry import Telemetry


def sanitize_events(events, layout, nprocs: int, opt=None,
                    hint_checking: Optional[bool] = None):
    """Sanitize a pre-recorded event stream against ``layout``."""
    from repro.sanitizer import Sanitizer

    san = Sanitizer(layout, nprocs, opt=opt, hint_checking=hint_checking)
    for ev in events:
        san.feed(ev)
    rep = san.finish()
    if not rep.accesses:
        rep.problems.append("the stream holds no access events")
    return rep


def sanitize_outcome(spec, out):
    """The finished run ``out`` of ``spec``: its recorded stream,
    sanitized against its own transformed program, then reconciled
    with its counters."""
    from repro.harness.runner import layout_for

    rep = sanitize_events(out.telemetry.bus.events,
                          layout_for(out.program, page_size=spec.page_size),
                          spec.nprocs, opt=spec.resolve_opt())
    rep.reconcile(out)
    return rep


def sanitize_run(app, opt="aggr+cons", **fields) -> Tuple[object, object]:
    """Run ``app`` on the DSM and sanitize it; returns (outcome, report).

    ``app`` is an application at ``opt``, run at
    :data:`~repro.harness.modes.SIZING` with any further
    :class:`~repro.harness.spec.RunSpec` ``fields`` (``dataset``,
    ``protocol``, ``data_plane``, ``config``, ...), or a ready DSM
    ``RunSpec``.
    """
    from repro.harness.modes import SIZING
    from repro.harness.spec import RunSpec, run

    spec = app if isinstance(app, RunSpec) else \
        RunSpec(app=app, opt=opt, **{**SIZING, **fields})
    out = run(spec, telemetry=Telemetry(access_events=True))
    return out, sanitize_outcome(spec, out)


def sanitize_jsonl(path, app, opt="aggr+cons", **sizing):
    """Replay a recorded JSONL trace of ``app`` at ``opt`` offline
    (``sizing`` overrides :data:`~repro.harness.modes.SIZING`)."""
    from repro.harness.modes import SIZING
    from repro.harness.runner import layout_for
    from repro.harness.spec import RunSpec

    spec = RunSpec(app=app, opt=opt, **{**SIZING, **sizing})
    # The hints a level adds declare no array: the source program's
    # layout is the transformed one's.
    layout = layout_for(spec.resolve_program(), page_size=spec.page_size)
    return sanitize_events(Telemetry.from_jsonl(path).bus.events, layout,
                           spec.nprocs, opt=spec.resolve_opt())
