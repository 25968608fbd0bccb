"""Run-and-sanitize drivers plus JSONL trace replay.

``sanitize_run`` is the front door: run one app on the DSM with access
events enabled and sanitize the stream online (a live bus subscriber).
``sanitize_events`` replays any recorded stream — e.g. the bus of a
``telemetry.write_jsonl`` file reloaded by ``Telemetry.from_jsonl`` —
against a layout rebuilt from the same app/opt pair.

A JSONL file orders records by ``(ts, pid)``, which is compatible with
the tracker's causality assumption: every happens-before edge in the
simulation crosses the network with positive latency, so a join event
always carries a strictly larger timestamp than the clock snapshot it
joins with; within one processor the sort is stable.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.telemetry import Telemetry


def _resolve(app, opt, dataset: str, nprocs: int, page_size: int):
    """(app_spec, opt_cfg, transformed program, layout) for one run."""
    from repro.compiler.transform import transform
    from repro.harness.runner import layout_for
    from repro.harness.spec import RunSpec

    spec = RunSpec(app=app, dataset=dataset, nprocs=nprocs, opt=opt)
    opt_cfg = spec.resolve_opt()
    program = spec.resolve_program()
    prog = transform(program, opt_cfg) if opt_cfg is not None else program
    return (spec.resolve_app(), opt_cfg, prog,
            layout_for(prog, page_size=page_size))


def sanitize_run(app, opt="aggr+cons", online: bool = True,
                 **fields) -> Tuple[object, object]:
    """Run ``app`` on the DSM and sanitize it; returns (outcome, report).

    ``app`` is an application at ``opt``, run at
    :data:`~repro.harness.modes.SIZING` with any further
    :class:`~repro.harness.spec.RunSpec` ``fields`` (``dataset``,
    ``protocol``, ``data_plane``, ``config``, ...), or a ready DSM
    ``RunSpec``.  ``online=True`` subscribes the sanitizer to the live
    bus (events checked as they happen); ``False`` feeds the recorded
    stream after the run.  Both see the identical append-ordered stream.
    """
    from repro.harness.modes import SIZING
    from repro.harness.spec import RunSpec, run
    from repro.sanitizer import Sanitizer

    spec = app if isinstance(app, RunSpec) else \
        RunSpec(app=app, opt=opt, **{**SIZING, **fields})
    _, opt_cfg, _, layout = _resolve(spec.app, spec.opt, spec.dataset,
                                     spec.nprocs, spec.page_size)
    tel = Telemetry(access_events=True)
    san = Sanitizer(layout, spec.nprocs, opt=opt_cfg)
    if online:
        san.attach(tel.bus)
    out = run(spec, telemetry=tel)
    if not online:
        for ev in tel.bus.events:
            san.feed(ev)
    rep = san.finish()
    rep.reconcile(out)
    return out, rep


def sanitize_events(events, layout, nprocs: int, opt=None,
                    hint_checking: Optional[bool] = None):
    """Sanitize a pre-recorded event stream against ``layout``."""
    from repro.sanitizer import Sanitizer

    san = Sanitizer(layout, nprocs, opt=opt, hint_checking=hint_checking)
    for ev in events:
        san.feed(ev)
    return san.finish()


def sanitize_jsonl(path, app, opt="aggr+cons", **sizing):
    """Replay a recorded JSONL trace of ``app`` at ``opt`` offline
    (``sizing`` overrides :data:`~repro.harness.modes.SIZING`)."""
    from repro.harness.modes import SIZING

    sizing = {**SIZING, **sizing}
    _, opt_cfg, _, layout = _resolve(app, opt, **sizing)
    return sanitize_events(Telemetry.from_jsonl(path).bus.events, layout,
                           sizing["nprocs"], opt=opt_cfg)
