"""Command-line entry point: paper artifacts, traces, and inspection.

Usage::

    python -m repro table1
    python -m repro table2 figure5
    python -m repro all --nprocs 8 --dataset bench
    python -m repro inspect jacobi --mode dsm --opt aggr
    python -m repro inspect jacobi --chrome trace.json --jsonl events.jsonl
    python -m repro inspect jacobi --profile
    python -m repro check [--update-baselines]
    python -m repro chaos --apps jacobi is --intensity heavy
    python -m repro recover --apps jacobi --schedules manager lock
    python -m repro elastic --apps jacobi --schedules drain-master
    python -m repro sanitize jacobi --opt push
    python -m repro sanitize --corpus
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from functools import partial

from repro.errors import ReproError
from repro.harness import experiments as ex


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


_SIZING = ("dataset", "nprocs", "page_size")
_RUN_FIELDS = (*_SIZING, "protocol", "data_plane")


def _run_kw(args, fields=_RUN_FIELDS) -> dict:
    """The RunSpec keywords the shared argument groups put on ``args``
    (a subcommand without ``--protocol`` simply has none to pass)."""
    have = vars(args)
    return {k: have[k] for k in fields if k in have}


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


def inspect_main(argv) -> int:
    """``python -m repro inspect <app>``: one traced run, reported."""
    from repro.apps import all_apps
    from repro.harness import MODES, RunSpec, run
    from repro.inspect import InspectReport

    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        parents=[_sizing_parent(), _opt_parent(), _protocol_parent(),
                 _data_plane_parent()],
        description="Run one application with telemetry and print the "
                    "protocol inspection report: hot pages, "
                    "lock/barrier contention, critical path.  The same "
                    "run can also be exported as a Chrome trace and a "
                    "JSONL event log, and wall-clock profiled.")
    parser.add_argument("app", choices=sorted(all_apps()),
                        help="application to inspect")
    parser.add_argument("--mode", default="dsm", choices=sorted(MODES))
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking table")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also export the full report as JSON "
                             "('-' for stdout)")
    parser.add_argument("--page", type=int, default=None,
                        help="also print this page's full transition "
                             "timeline")
    parser.add_argument("--chrome", default=None, metavar="PATH",
                        help="also export a Chrome-trace timeline "
                             "(chrome://tracing or https://ui.perfetto.dev)")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="also write a JSONL event log here")
    parser.add_argument("--profile", action="store_true",
                        help="wall-clock profile the run and print the "
                             "host-time attribution table")
    args = parser.parse_args(argv)

    spec = RunSpec(app=args.app, mode=args.mode,
                   opt=args.opt if args.mode == "dsm" else None,
                   telemetry=True, profile=args.profile, **_run_kw(args))
    out = run(spec)
    rep = InspectReport.build(
        out, title=f"{args.app} mode={args.mode} nprocs={spec.nprocs}"
        + (f" opt={spec.opt}" if spec.opt else ""))
    wrote = []
    for path, write in (
            (args.chrome, out.telemetry.write_chrome_trace),
            (args.jsonl, out.telemetry.write_jsonl)):
        if path:
            write(path)
            wrote.append(path)

    lines = [rep.render(args.top)]
    if args.page is not None:
        lines += [f"\nTimeline of page {args.page}",
                  "=" * (17 + len(str(args.page))),
                  *map(str, rep.timelines.timeline(args.page))]
    if args.profile:
        lines += ["", out.profile.render()]
    if wrote or args.json:
        lines.append("")    # blank line before "wrote <path>"
    lines += [f"wrote {path}" for path in wrote]
    _emit(args, rep.as_dict(args.top), "\n".join(lines))
    return 0 if not rep.reconcile() else 1


def check_main(argv) -> int:
    """``python -m repro check``: the one gate over every run cell."""
    from repro.inspect import baseline

    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        parents=[_protocol_parent()],
        description="Run every unperturbed cell of the run matrix "
                    "(app x mode x opt level x backend x data plane) "
                    "once, traced, and check it four ways: its record "
                    "against benchmarks/baselines/protocol.json (counts "
                    "exactly, simulated time within a relative "
                    "tolerance), its result arrays against the numpy "
                    "reference, the inspector's reconciliation and, on "
                    "the DSM, the sanitizer.  --protocol restricts the "
                    "run (and any update) to one backend's entries.")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baseline file from this run "
                             "(after an intentional protocol change); "
                             "with --protocol, only that backend's "
                             "entries are rewritten.  Any other oracle's "
                             "problem still exits 1")
    parser.add_argument("--baselines", default=None, metavar="PATH",
                        help="baseline JSON path (default: "
                             "benchmarks/baselines/protocol.json)")
    parser.add_argument("--data-plane", default=None, dest="data_plane",
                        choices=("twosided", "onesided"),
                        help="restrict the run (and any update) to one "
                             "data plane's entries")
    args = parser.parse_args(argv)

    result = baseline.check(path=args.baselines,
                            update=args.update_baselines,
                            protocol=args.protocol,
                            data_plane=args.data_plane)
    if result.updated:
        path = args.baselines or baseline.default_path()
        print(f"updated {path} ({len(result.measured)} entries)")
    if not (result.updated and result.ok):
        print(result.render())
    return 0 if result.ok else 1


def sweep_main(kind: str, argv) -> int:
    """``python -m repro chaos|recover|elastic``: one robustness sweep.

    Its flags derive from the sweep's policy and the capability table."""
    import importlib

    from repro.apps import all_apps
    from repro.capability import legal_cells

    policy = importlib.import_module(f"repro.harness.{kind}").POLICY
    parents = [_sizing_parent(), _protocol_parent()]
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
    if not policy.mined:        # labels name seeded plans
        parser.add_argument("--seed", type=int, default=0,
                            help="RNG seed (same seed = same schedule)")
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
                         seed=args.seed, plan=plan, **_run_kw(args))
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
                             "--corpus to cover every app)")
    parser.add_argument("--corpus", action="store_true",
                        help="run the mutated-hint detection corpus; "
                             "exits non-zero unless every mutation "
                             "is detected")
    parser.add_argument("--replay", default=None, metavar="JSONL",
                        help="sanitize a recorded telemetry JSONL "
                             "trace of <app> at --opt instead of "
                             "running")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="export the report as JSON "
                             "('-' for stdout)")
    args = parser.parse_args(argv)
    if not (args.app or args.corpus):
        parser.error("name an app, or --corpus; every run cell is "
                     "sanitized by 'python -m repro check'")

    sizing = _run_kw(args, _SIZING)
    if args.corpus:
        apps = [args.app] if args.app else None
        corpus = matrix.run_corpus(matrix.build_corpus(apps=apps, **sizing),
                                   **sizing)
        text, result = matrix.render_corpus(corpus), dict(corpus=corpus)
        ok = all(e.detected for e in corpus)
    else:
        rep = (sanitize_jsonl(args.replay, args.app, opt=args.opt, **sizing)
               if args.replay else
               sanitize_run(args.app, opt=args.opt, **_run_kw(args))[1])
        text, result, ok = rep.render(), dict(report=rep), rep.ok
    _emit(args, matrix.payload(sizing, **result), text)
    return 0 if ok else 1


SUBCOMMANDS = {"inspect": inspect_main, "check": check_main,
               "sanitize": sanitize_main,
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
                        choices=sorted(ex.ARTIFACTS) + ["all"],
                        help="which tables/figures to regenerate")
    parser.add_argument("--nprocs", type=int, default=8)
    parser.add_argument("--dataset", default="bench",
                        help="data set name (bench, tiny, ...)")
    args = parser.parse_args(argv)

    names = sorted(ex.ARTIFACTS) if "all" in args.artifacts \
        else args.artifacts
    for name in names:
        art = ex.ARTIFACTS[name]
        print(art.render(art.rows(args.dataset, args.nprocs)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
