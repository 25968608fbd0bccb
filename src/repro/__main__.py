"""Command-line entry point: paper artifacts, traces, and inspection.

Usage::

    python -m repro table1
    python -m repro table2 figure5
    python -m repro all --nprocs 8 --dataset bench
    python -m repro trace jacobi --out trace.json
    python -m repro inspect jacobi --mode dsm --opt aggr
    python -m repro check [--update-baselines]
    python -m repro chaos --apps jacobi is --intensity heavy
    python -m repro recover --apps jacobi --schedules manager lock
    python -m repro elastic --apps jacobi --schedules drain-master
    python -m repro sanitize jacobi --opt push
    python -m repro sanitize --all
    python -m repro bench --json bench.json
    python -m repro report jacobi --html report.html
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from functools import partial

from repro.errors import ReproError
from repro.harness import experiments as ex
from repro.harness import report


# ----------------------------------------------------------------------
# Shared argument groups.  Every run-shaped subcommand takes the same
# sizing knobs; defining them once keeps defaults and help text in one
# place (argparse merges parents into each subcommand's parser).
# ----------------------------------------------------------------------

def _sizing_parent() -> argparse.ArgumentParser:
    """``--dataset/--nprocs/--page-size``, shared by every run command."""
    from repro.harness.modes import SIZING

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--dataset", default=SIZING["dataset"],
                   help="data set name (tiny, bench, ...)")
    p.add_argument("--nprocs", type=int, default=SIZING["nprocs"],
                   help="number of simulated processors")
    p.add_argument("--page-size", type=int, default=SIZING["page_size"],
                   help="DSM page size in bytes")
    return p


def _mode_parent() -> argparse.ArgumentParser:
    """``--mode``, for commands that run one app in one mode."""
    from repro.harness import MODES

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--mode", default="dsm", choices=sorted(MODES))
    return p


def _opt_parent(opt: str = "aggr") -> argparse.ArgumentParser:
    """``--opt``, for commands that run one app at one DSM opt level."""
    from repro.harness.modes import OPT_LEVELS

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--opt", default=opt, choices=sorted(OPT_LEVELS),
                   help="DSM optimization level")
    return p


def _protocol_parent() -> argparse.ArgumentParser:
    """``--protocol``, for commands that run the DSM."""
    from repro.tm.coherence import protocols

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--protocol", default=None,
                   choices=sorted(protocols()),
                   help="DSM coherence backend (default: the paper's "
                        "mw-lrc)")
    return p


def _data_plane_parent() -> argparse.ArgumentParser:
    """``--data-plane``, for commands that run the DSM."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--data-plane", default=None, dest="data_plane",
                   choices=("onesided",),
                   help="re-lower the protocol's hot paths onto the "
                        "one-sided (RDMA-style) data plane; default is "
                        "the classic two-sided message protocol "
                        "(docs/networking.md)")
    return p


def _seed_parent(seed: int = 0) -> argparse.ArgumentParser:
    """``--seed``, for commands with a deterministic RNG input."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=seed,
                   help="RNG seed (same seed = same schedule)")
    return p


def _progress_parent() -> argparse.ArgumentParser:
    """``--progress``, the live run-monitor heartbeat on stderr."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--progress", action="store_true",
                   help="print a live heartbeat (simulated time, "
                        "events/sec, ETA) to stderr while running")
    return p


def _monitor(args):
    """A bound-ready RunMonitor when ``--progress`` was given."""
    if not getattr(args, "progress", False):
        return None
    from repro.observe import RunMonitor
    return RunMonitor()


_SIZING = ("dataset", "nprocs", "page_size")
_RUN_FIELDS = (*_SIZING, "protocol", "data_plane")


def _run_kw(args, fields=_RUN_FIELDS) -> dict:
    """The RunSpec keywords the shared argument groups put on ``args``
    (a subcommand without ``--protocol`` simply has none to pass)."""
    have = vars(args)
    return {k: have[k] for k in fields if k in have}


def _traced_spec(args, **extra):
    """The traced RunSpec of a one-app, one-mode subcommand."""
    from repro.harness import RunSpec
    return RunSpec(app=args.app, mode=args.mode,
                   opt=args.opt if args.mode == "dsm" else None,
                   telemetry=True, **_run_kw(args), **extra)


def _emit(args, payload: dict, text: str, **dump_kw) -> None:
    """``--json -`` prints the payload alone; otherwise print ``text``
    and, given ``--json PATH``, also write the payload there."""
    import json
    if args.json == "-":
        print(json.dumps(payload, indent=2, **dump_kw))
        return
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, **dump_kw)
            fh.write("\n")
        print(f"wrote {args.json}")


ARTIFACTS = {
    "table1": (lambda args: ex.table1(dataset=args.dataset),
               report.render_table1),
    "table2": (lambda args: ex.table2(dataset=args.dataset,
                                      nprocs=args.nprocs),
               report.render_table2),
    "figure5": (lambda args: ex.figure5(dataset=args.dataset,
                                        nprocs=args.nprocs),
                report.render_figure5),
    "figure6": (lambda args: ex.figure6(dataset=args.dataset,
                                        nprocs=args.nprocs),
                report.render_figure6),
    "figure7": (lambda args: ex.figure7(dataset=args.dataset,
                                        nprocs=args.nprocs),
                report.render_figure7),
    "breakdown": (lambda args: ex.breakdown(dataset=args.dataset,
                                            nprocs=args.nprocs),
                  report.render_breakdown),
    "scaling": (lambda args: ex.scaling(dataset=args.dataset),
                report.render_scaling),
    "sensitivity": (lambda args: ex.sensitivity(dataset=args.dataset,
                                                nprocs=args.nprocs),
                    lambda rows: report.render_table(
                        "Communication-cost sensitivity (Jacobi)",
                        ["comm x", "Tmk", "Opt-Tmk", "PVMe"],
                        [[r["comm_cost_x"], r["Tmk"], r["Opt-Tmk"],
                          r["PVMe"]] for r in rows])),
}


def trace_main(argv) -> int:
    """``python -m repro trace <app>``: run once with full telemetry."""
    from repro.apps import all_apps
    from repro.harness import run

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        parents=[_sizing_parent(), _mode_parent(), _opt_parent(),
                 _protocol_parent(), _data_plane_parent(),
                 _progress_parent()],
        description="Run one application with telemetry enabled and "
                    "export a Chrome-trace timeline "
                    "(chrome://tracing or https://ui.perfetto.dev).")
    parser.add_argument("app", choices=sorted(all_apps()),
                        help="application to trace")
    parser.add_argument("--out", default=None,
                        help="Chrome-trace output path "
                             "(default: trace-<app>.json)")
    parser.add_argument("--jsonl", default=None,
                        help="also write a JSONL event log here")
    parser.add_argument("--profile", action="store_true",
                        help="wall-clock profile the run and print the "
                             "host-time attribution table")
    args = parser.parse_args(argv)

    out = run(_traced_spec(args, profile=args.profile,
                           monitor=_monitor(args)))
    tel = out.telemetry
    path = args.out or f"trace-{args.app}.json"
    tel.write_chrome_trace(path)
    if args.jsonl:
        tel.write_jsonl(args.jsonl)

    print(f"{args.app} [{args.mode}] dataset={args.dataset} "
          f"nprocs={args.nprocs}: t={out.time:.1f}us "
          f"messages={out.messages} bytes={out.data_bytes}")
    counts = tel.counts()
    for kind in sorted(counts):
        print(f"  {kind:<20} {counts[kind]}")
    print(f"wrote {path} ({len(tel.bus)} events, "
          f"{len(tel.spans)} spans)")
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    if out.profile is not None:
        print()
        print(out.profile.render())
    return 0


def inspect_main(argv) -> int:
    """``python -m repro inspect <app>``: protocol inspection report."""
    from repro.apps import all_apps
    from repro.inspect import inspect_run

    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        parents=[_sizing_parent(), _mode_parent(), _opt_parent(),
                 _protocol_parent(), _data_plane_parent()],
        description="Run one application with telemetry and print the "
                    "protocol inspection report: hot pages, "
                    "lock/barrier contention, critical path.")
    parser.add_argument("app", choices=sorted(all_apps()),
                        help="application to inspect")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking table")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also export the full report as JSON "
                             "('-' for stdout)")
    parser.add_argument("--page", type=int, default=None,
                        help="also print this page's full transition "
                             "timeline")
    args = parser.parse_args(argv)

    rep = inspect_run(_traced_spec(args))
    lines = [rep.render(args.top)]
    if args.page is not None:
        lines += [f"\nTimeline of page {args.page}",
                  "=" * (17 + len(str(args.page))),
                  *map(str, rep.timelines.timeline(args.page))]
    if args.json:
        lines.append("")    # blank line before "wrote <path>"
    _emit(args, rep.as_dict(args.top), "\n".join(lines))
    return 0 if not rep.reconcile() else 1


def check_main(argv) -> int:
    """``python -m repro check``: protocol-baseline regression gate."""
    from repro.inspect import baseline

    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        parents=[_protocol_parent()],
        description="Re-run every unperturbed cell of the run matrix "
                    "(app x mode x opt level x backend x data plane) "
                    "and compare against benchmarks/baselines/"
                    "protocol.json.  Counts must match exactly; "
                    "simulated time within a relative tolerance.  "
                    "--protocol restricts the run (and any update) to "
                    "one backend's entries.")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file from this run "
                             "(after an intentional protocol change); "
                             "with --protocol, only that backend's "
                             "entries are rewritten")
    parser.add_argument("--baselines", default=None, metavar="PATH",
                        help="baseline JSON path (default: "
                             "benchmarks/baselines/protocol.json)")
    parser.add_argument("--rtol", type=float,
                        default=baseline.TIME_RTOL,
                        help="relative tolerance for simulated time")
    parser.add_argument("--data-plane", default=None, dest="data_plane",
                        choices=("twosided", "onesided"),
                        help="restrict the run (and any update) to one "
                             "data plane's entries")
    args = parser.parse_args(argv)

    result = baseline.check(path=args.baselines,
                            update=args.update_baselines,
                            rtol=args.rtol, protocol=args.protocol,
                            data_plane=args.data_plane)
    if result.updated:
        path = args.baselines or baseline.default_path()
        print(f"updated {path} ({len(result.measured)} entries)")
        return 0
    for key in sorted(result.measured):
        entry = result.measured[key]
        print(f"  {key:<32} t={entry['time_us']:.1f}us "
              f"messages={entry['messages']} "
              f"bytes={entry['data_bytes']}")
    if result.ok:
        print(f"OK: {len(result.measured)} baseline entries match")
        return 0
    print(f"FAIL: {len(result.problems)} mismatches")
    for p in result.problems:
        print(f"  ! {p}")
    return 1


def sweep_main(kind: str, argv) -> int:
    """``python -m repro chaos|recover|elastic``: one robustness sweep.

    Its flags derive from the sweep's policy and the capability table."""
    import importlib

    from repro.apps import all_apps
    from repro.capability import legal_cells

    policy = importlib.import_module(f"repro.harness.{kind}").POLICY
    parents = [_sizing_parent(), _protocol_parent()]
    if not policy.mined:        # labels name seeded plans
        parents.append(_seed_parent())
    if any(c.data_plane == "onesided"
           and policy.perturbation in c.perturbations
           for c in legal_cells()):
        parents.append(_data_plane_parent())
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {kind}", parents=parents,
        description=f"{policy.title}: sweep apps x opt levels x "
                    f"{policy.flag.lstrip('-')}, running each case "
                    f"unperturbed and perturbed; the table reports what "
                    f"the perturbation cost.  {policy.note}")
    parser.add_argument("--apps", nargs="*", default=None,
                        choices=sorted(all_apps()),
                        help="applications to sweep (default: all)")
    parser.add_argument("--opts", nargs="*", default=None,
                        help="DSM optimization levels (default: every "
                             "level applicable to each app)")
    parser.add_argument(policy.flag, nargs="*", default=None,
                        choices=policy.labels, dest="labels",
                        help="cases to run (default: every one "
                             "applicable to each app)")
    parser.add_argument("--plan", default=None, metavar="FILE",
                        help="run this declarative JSON fault plan for "
                             "each app/opt pair instead of the named "
                             "cases")
    parser.add_argument("--no-inspect", action="store_true",
                        help="skip the protocol-inspector invariant "
                             "checks on each perturbed run")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="export the sweep results as JSON "
                             "('-' for stdout)")
    # Sweeps that mine take no --seed; one whose perturbation has no
    # one-sided cell takes no --data-plane.
    parser.set_defaults(seed=0, data_plane=None)
    args = parser.parse_args(argv)

    plan = None
    if args.plan:
        from repro.faults import plan_from_json
        plan = plan_from_json(args.plan)
    cases = policy.sweep(args.apps, args.opts, args.labels,
                         seed=args.seed, inspect=not args.no_inspect,
                         plan=plan, **_run_kw(args))
    _emit(args, policy.payload(cases, seed=args.seed, **_run_kw(args)),
          policy.render(cases))
    return 0 if all(c.ok for c in cases) else 1


def sanitize_main(argv) -> int:
    """``python -m repro sanitize``: race + hint-soundness checking."""
    from repro.apps import all_apps
    from repro.sanitizer import matrix
    from repro.sanitizer.replay import sanitize_jsonl, sanitize_run

    parser = argparse.ArgumentParser(
        prog="python -m repro sanitize",
        parents=[_sizing_parent(), _opt_parent("aggr+cons"),
                 _protocol_parent(), _data_plane_parent()],
        description="Run applications under the DSM sanitizer: "
                    "vector-clock race detection plus compiler-hint "
                    "soundness checking over the telemetry event "
                    "stream.  Exits non-zero on any finding.")
    parser.add_argument("app", nargs="?", choices=sorted(all_apps()),
                        help="application to sanitize (omit with "
                             "--all / --corpus to cover every app)")
    parser.add_argument("--all", action="store_true",
                        help="sanitize every app at every applicable "
                             "opt level (the clean matrix)")
    parser.add_argument("--corpus", action="store_true",
                        help="run the mutated-hint detection corpus; "
                             "exits non-zero unless every mutation "
                             "is detected")
    parser.add_argument("--offline", action="store_true",
                        help="replay the recorded stream after the run "
                             "instead of checking online")
    parser.add_argument("--replay", default=None, metavar="JSONL",
                        help="sanitize a recorded telemetry JSONL "
                             "trace of <app> at --opt instead of "
                             "running")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="export the report as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    from repro.harness.schema import envelope

    sizing = _run_kw(args, _SIZING)

    def emit(text, **results) -> None:
        _emit(args, envelope("sanitize", **sizing, **results), text)

    apps = [args.app] if args.app else None
    if args.corpus:
        corpus = matrix.build_corpus(apps=apps, **sizing)
        matrix.run_corpus(corpus, **sizing)
        emit(matrix.render_corpus(corpus),
             corpus=[e.__dict__ for e in corpus])
        return 0 if all(e.detected for e in corpus) else 1
    if args.all or not args.app:
        cases = matrix.clean_matrix(apps=apps, **_run_kw(args))
        emit(matrix.render_matrix(cases),
             cases=[c.report.as_dict() for c in cases])
        return 0 if all(c.ok for c in cases) else 1
    if args.replay:
        rep = sanitize_jsonl(args.replay, args.app, opt=args.opt,
                             **sizing)
    else:
        _, rep = sanitize_run(args.app, opt=args.opt,
                              online=not args.offline, **_run_kw(args))
    emit(rep.render(), report=rep.as_dict())
    return 0 if rep.ok else 1


def bench_main(argv) -> int:
    """``python -m repro bench``: machine-readable benchmark summary."""
    from repro.apps import all_apps
    from repro.harness import bench

    from repro.tm.coherence import protocols

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        parents=[_sizing_parent()],
        description="Run the full mode matrix (seq, every applicable "
                    "DSM opt level, message passing, XHPF) and report "
                    "simulated time, speedup and message counts per "
                    "app x mode.  With --protocols, instead compare "
                    "the DSM coherence backends side by side (app x "
                    "opt x protocol).  --json holds each cell's record "
                    "under its baseline key, as 'check' gates it.")
    parser.add_argument("--apps", nargs="*", default=None,
                        choices=sorted(all_apps()),
                        help="applications to bench (default: all, in "
                             "the paper's order)")
    parser.add_argument("--protocols", nargs="*", default=None,
                        metavar="PROTO",
                        help="compare DSM coherence backends instead "
                             "of the mode matrix; give names "
                             f"({', '.join(sorted(protocols()))}) or "
                             "no argument for all registered backends")
    parser.add_argument("--data-planes", nargs="*", default=None,
                        dest="data_planes",
                        choices=("twosided", "onesided"),
                        metavar="PLANE",
                        help="the data plane(s) of the DSM rows "
                             "(twosided, onesided; default twosided); "
                             "with --protocols and both, onesided rows "
                             "carry their message delta vs the matching "
                             "two-sided cell")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON payload here "
                             "('-' for stdout)")
    args = parser.parse_args(argv)

    cells = dict(apps=args.apps, data_planes=args.data_planes,
                 **_run_kw(args))
    if args.protocols is not None:
        payload = bench.bench_protocols(
            protocols=args.protocols or None, **cells)
        render = bench.render_bench_protocols
    else:
        payload = bench.bench(**cells)
        render = bench.render_bench
    _emit(args, payload, render(payload), sort_keys=True)
    return 0


def report_main(argv) -> int:
    """``python -m repro report``: self-contained HTML run report."""
    from repro.apps import all_apps
    from repro.harness import run
    from repro.inspect import InspectReport
    from repro.observe.htmlreport import write_html

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        parents=[_sizing_parent(), _mode_parent(), _opt_parent(),
                 _protocol_parent(), _data_plane_parent(),
                 _progress_parent()],
        description="Run one application traced AND wall-clock "
                    "profiled, then write a single self-contained HTML "
                    "file: summary tiles, critical-path tiling, "
                    "wall-clock attribution, contention profile, and "
                    "hot-page timelines.  No external assets; opens "
                    "offline.")
    parser.add_argument("app", choices=sorted(all_apps()),
                        help="application to report on")
    parser.add_argument("--html", default=None, metavar="PATH",
                        help="output path (default: report-<app>.html)")
    args = parser.parse_args(argv)

    profiled = args.mode != "seq"
    out = run(_traced_spec(args, profile=profiled,
                           monitor=_monitor(args) if profiled else None))
    title = (f"{args.app} [{args.mode}] dataset={args.dataset} "
             f"nprocs={args.nprocs}")
    rep = InspectReport.build(out, title=title)
    path = args.html or f"report-{args.app}.html"
    write_html(path, rep, profile=out.profile, title=title)
    problems = rep.reconcile()
    print(f"wrote {path} (t={out.time:.1f}us, "
          f"{len(out.telemetry.bus)} events"
          + (f", {out.profile.events_per_sec():,.0f} ev/s"
             if out.profile is not None else "")
          + f", {len(problems)} reconciliation problems)")
    return 0 if not problems else 1


SUBCOMMANDS = {"trace": trace_main, "inspect": inspect_main,
               "check": check_main, "sanitize": sanitize_main,
               "bench": bench_main, "report": report_main,
               **{kind: partial(sweep_main, kind)
                  for kind in ("chaos", "recover", "elastic")}}


def _subcommand_summary() -> str:
    """``name (what it does)`` per subcommand, read off the first
    docstring line (``python -m repro <name> ...``: <what>.) of each
    ``SUBCOMMANDS`` entry, so the help text cannot outlive a command."""
    firsts = dict.fromkeys(getattr(fn, "func", fn).__doc__.splitlines()[0]
                           for fn in SUBCOMMANDS.values())
    clauses = []
    for line in firsts:
        command, what = line.split("``: ")
        clauses.append(f"{command.split()[3]} ({what.rstrip('.')})")
    return ", ".join(clauses)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``... | head``): leave quietly with
        # the conventional SIGPIPE status, stdout pointed at devnull so
        # the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


def _main(argv) -> int:
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's evaluation artifacts.  "
                    f"Subcommands: {_subcommand_summary()}; see "
                    "'python -m repro <sub> -h'.")
    parser.add_argument("artifacts", nargs="+",
                        choices=sorted(ARTIFACTS) + ["all"],
                        help="which tables/figures to regenerate")
    parser.add_argument("--nprocs", type=int, default=8)
    parser.add_argument("--dataset", default="bench",
                        help="data set name (bench, tiny, ...)")
    args = parser.parse_args(argv)

    names = sorted(ARTIFACTS) if "all" in args.artifacts \
        else args.artifacts
    for name in names:
        driver, renderer = ARTIFACTS[name]
        print(renderer(driver(args)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
