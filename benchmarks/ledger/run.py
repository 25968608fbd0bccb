"""The ledger: one pinned, calibrated, layer-attributed benchmark run.

    python3 benchmarks/ledger/run.py --workload <name|all> [--seed N]
        [--seconds S | --passes N] [--trace [0|1]] [--json OUT]
    python3 benchmarks/ledger/run.py --selfcheck

Prints every metric by name with its unit, verifies every result,
exits non-zero on a verification failure, and ends with the one-line
JSON object the benchmark driver reads (see BENCHMARK.json and
README.md in this directory).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import ledger_protocol as lp

#: Fresh interpreter launches behind ``setup_s``.
SETUP_LAUNCHES = 9
#: A workload is never reported from fewer timed passes than this.
MIN_PASSES = 5

HEADER = """\
ledger: host-clock and simulated-clock benchmark of the simulator.
Accuracy: simulated statistics are validated against references the
repository holds (a numpy reference per application; exact protocol
baselines via `repro check`, see --selfcheck).  The `bench` datasets
are scaled, so agreement with the paper's absolute SP/2 numbers is a
shape claim checked by `pytest benchmarks/`, not here; no paper-error
figure is given."""


class LedgerError(Exception):
    """A hard error of the measurement itself (not a failed op)."""


# ----------------------------------------------------------------------
# Set-up time: fresh interpreters, timed from outside.
# ----------------------------------------------------------------------

def launch_setup(workload: str) -> Dict[str, float]:
    """One fresh-interpreter set-up of ``workload``: host seconds from
    process start to exit, and the import share the probe reports."""
    probe = str(lp.LEDGER_DIR / "setup_probe.py")
    t0 = perf_counter()
    done = subprocess.run([sys.executable, probe, workload],
                          capture_output=True, text=True)
    total = perf_counter() - t0
    if done.returncode != 0:
        raise LedgerError(f"set-up probe failed:\n{done.stderr}")
    return {"total_s": total,
            "import_s": json.loads(done.stdout)["import_s"]}


# ----------------------------------------------------------------------
# One workload, in this process.
# ----------------------------------------------------------------------

def timed_passes(workload, references, seed: int,
                 seconds: float, passes: Optional[int]):
    """Warm-up, then timed passes until ``seconds`` have gone by (never
    fewer than MIN_PASSES) or exactly ``passes`` of them.

    A calibration follows every pass and the set-up launches are
    spread between the passes, so all three samples of the machine's
    speed cover the same stretch of time.  Garbage is collected between
    passes, outside the timed region.

    Returns ``(warmup, results, calibrations, launches)``."""
    import ledger_workloads as lw

    launches = [launch_setup(workload.name)]
    warmup = lw.run_pass(workload, references, seed)
    results, cals = [], [lp.calibrate()]
    t_start = perf_counter()
    while True:
        gc.collect()
        results.append(lw.run_pass(workload, references, seed))
        cals.append(lp.calibrate())
        if len(launches) < SETUP_LAUNCHES:
            launches.append(launch_setup(workload.name))
        if passes is not None:
            if len(results) >= passes:
                break
        elif len(results) >= MIN_PASSES \
                and perf_counter() - t_start >= seconds:
            break
    while len(launches) < SETUP_LAUNCHES:
        launches.append(launch_setup(workload.name))
    return warmup, results, cals, launches


def count_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """The ``count`` per-layer metrics from a pass's summed counters."""
    t = defaultdict(int, totals)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: t[name] for name, (_, _, kind) in lp.PER_LAYER.items()
           if kind == "count"}
    out["net.cas_success_ratio"] = ratio(
        t["_cas_ops"] - t["_cas_failures"], t["_cas_ops"])
    out["tm.onesided_hit_ratio"] = ratio(
        t["tm.onesided_reads"],
        t["tm.onesided_reads"] + t["_onesided_fallbacks"])
    out["tm.lock_retries_per_acquire"] = ratio(
        t["tm.onesided_lock_retries"], t["_onesided_lock_acquires"])
    return out


def trace_extras(workload, references, seed: int, expect,
                 plain: float, allowed_cpus):
    """The extra passes of a ``--trace 1`` run, after the timed ones.

    ``expect`` is an untraced pass the traced one must reproduce and
    ``plain`` the median untraced pass wall, the base of the overhead
    percentages.  Returns ``(per-layer values, traced record, spans
    path, failures)``."""
    import ledger_layers
    import ledger_workloads as lw

    spans = lp.SpanLog(workload.name)
    traced = lw.traced_pass(workload, expect, seed, spans)
    failures = list(traced.result.failures)
    values = {
        "observe.profile_overhead_pct":
            100.0 * (traced.result.wall_s - plain) / plain,
        "sim.events": traced.events,
        "interp.stmts": traced.stmts,
        "interp.stmt_us": 1e6 * traced.host_s.get("compute", 0.0)
            / traced.stmts if traced.stmts else 0.0,
        "telemetry.overhead_pct": 0.0,
        "telemetry.events": 0,
    }
    for metric in lp.PER_LAYER:
        if metric.startswith("host_s."):
            values[metric] = traced.host_s.get(metric[7:], 0.0)
    if workload.fault_free:
        told = lw.run_pass(workload, references, seed, telemetry=True)
        failures += told.failures
        values["telemetry.overhead_pct"] = \
            100.0 * (told.wall_s - plain) / plain
        values["telemetry.events"] = sum(
            op.telemetry_events for op in told.ops)
    with lp.unpinned(allowed_cpus):
        loose = lw.run_pass(workload, references, seed)
    failures += loose.failures
    values["sim.unpinned_slowdown_x"] = loose.wall_s / plain
    values.update(ledger_layers.measure_all(workload))
    record = {
        "run_span_s": traced.run_span_s,
        "host_s_sum": sum(traced.host_s.values()),
        "host_s_per_cell": traced.per_cell,
        "pass_wall_s": traced.result.wall_s,
    }
    return (values, record, str(spans.write().relative_to(lp.ROOT)),
            failures)


def run_workload(name: str, seed: int, seconds: float,
                 passes: Optional[int], trace: bool,
                 allowed_cpus) -> dict:
    import ledger_workloads as lw

    workload = lw.WORKLOADS[name]
    references = {cell: lw.reference_arrays(cell)
                  for cell in workload.ops if isinstance(cell, lw.Cell)}
    # A traced run spends the other half of its time on the traced,
    # telemetry and unpinned passes and the microbenchmarks.
    warmup, results, cals, launches = timed_passes(
        workload, references, seed,
        seconds / 2 if trace else seconds, passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0

    failures = [f for r in results for f in r.failures]
    if not failures and any(r.fingerprint() != results[0].fingerprint()
                            for r in results[1:]):
        raise LedgerError(
            f"{name}: deterministic counters drifted between timed "
            f"passes: a simulation-only number changed within one "
            f"process")

    walls = [r.wall_s for r in results]
    cell_walls = {op.label: [r.ops[i].wall_s for r in results]
                  for i, op in enumerate(results[0].ops)}
    setups = [l["total_s"] for l in launches]
    totals = results[0].totals()
    cal_spread = lp.spread(cals)
    # Best-of, because this class of machine only ever takes time away
    # (README, "Why best-of"): one pass with every cell at its best --
    # cells are disturbed independently, so this floor is reached
    # sooner than the best whole pass -- over the best calibration.
    wall = sum(min(v) for v in cell_walls.values())
    end_to_end = {
        "wall_s": lp.timing(wall, walls),
        "wall_norm": lp.timing(wall / min(cals),
                               [w / min(cals) for w in walls]),
        "setup_s": lp.timing(min(setups), setups),
        "peak_rss_mb": {"value": peak_rss_mb},
        "sim_time_us": {"value": totals.get("sim_time_us", 0.0)},
    }
    per_layer = {k: {"value": v} for k, v in count_metrics(totals).items()}
    record = {
        "why": workload.why,
        "seed_independent": workload.fault_free,
        "noisy": cal_spread > lp.NOISY_SPREAD,
        "passes": len(results),
        "ops": sum(len(r.ops) for r in results),
        "failed_ops": len(failures),
        "failures": failures,
        "pass_wall_s": walls,
        "cell_wall_s": cell_walls,
        "calibration_s": cals,
        "setup_launch_s": setups,
    }
    if trace:
        values, record["traced"], record["spans"], more = trace_extras(
            workload, references, seed, results[0],
            statistics.median(walls), allowed_cpus)
        values.update({
            "harness.import_s": min(l["import_s"] for l in launches),
            "harness.warmup_excess_s":
                warmup.wall_s - statistics.median(walls),
            "harness.calibration_s": min(cals),
            "harness.calibration_spread": cal_spread,
        })
        per_layer.update({k: {"value": v} for k, v in values.items()})
        failures += more
        record["failed_ops"] = len(failures)
    for metric, rec in end_to_end.items():
        rec["unit"] = lp.END_TO_END[metric][0]
    for metric, rec in per_layer.items():
        rec["unit"] = lp.PER_LAYER[metric][0]
    record["end_to_end"] = end_to_end
    record["per_layer"] = per_layer
    return record


# ----------------------------------------------------------------------
# Baseline cross-check.
# ----------------------------------------------------------------------

def selfcheck() -> int:
    """``is/dsm/base`` through the ledger's own cell runner must equal
    the entry ``repro check`` gates: proof both drive one system."""
    import ledger_workloads as lw

    from repro.inspect.baseline import default_path

    with open(default_path()) as fh:
        want = json.load(fh)["is/dsm/base"]
    cell = lw.Cell("is", "tiny", "base", nprocs=4, page_size=1024)
    got = lw.run_cell(cell, lw.reference_arrays(cell))
    pairs = {"messages": got.counters.get("net.messages"),
             "data_bytes": got.counters.get("net.bytes"),
             "time_us": got.counters.get("sim_time_us")}
    bad = [f"{k}: ledger {v!r} != baseline {want[k]!r}"
           for k, v in pairs.items() if v != want[k]]
    if got.failure:
        bad.append(got.failure)
    for line in bad:
        print(f"selfcheck FAIL {line}")
    if not bad:
        print(f"selfcheck ok: is/dsm/base matches protocol.json "
              f"({pairs})")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------

def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=lp.ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def envelope(seed: int, pinned: bool, trace: bool,
             workloads: Dict[str, dict]) -> dict:
    import numpy

    from repro.harness.schema import envelope as repro_envelope

    return repro_envelope(
        "ledger",
        calibration_version=lp.CALIBRATION_VERSION,
        pinned=pinned,
        noisy=any(w["noisy"] for w in workloads.values()),
        seed=seed,
        trace=trace,
        passes={k: w["passes"] for k, w in workloads.items()},
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        git_commit=git_commit(),
        workloads=workloads)


def print_workload(name: str, rec: dict) -> None:
    print(f"\n== {name}: {rec['passes']} timed passes, {rec['ops']} ops, "
          f"{rec['failed_ops']} failed ==")
    print("inputs: " + (
        "deterministic functions of the dataset (seed-independent by "
        "construction)" if rec["seed_independent"] else
        "--seed feeds the chaos cases' FaultPlan seeds"))
    if rec["noisy"]:
        print("WARNING: calibration spread above "
              f"{lp.NOISY_SPREAD:.0%}: this machine was noisy")
    for group in ("end_to_end", "per_layer"):
        for metric, m in rec[group].items():
            extra = ""
            if "q1" in m:
                extra = f"  [best of {m['n']}: median {m['median']:.6g}" \
                        f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}]"
            print(f"  {metric:34s} {m['value']:>16.6g} "
                  f"{m['unit']:7s}{extra}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def driver_line(workloads: Dict[str, dict], trace: bool) -> str:
    """The last line of stdout: what the benchmark driver parses."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    if len(workloads) == 1:
        (rec,) = workloads.values()
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in rec[group].items()}
    attempted = sum(w["ops"] for w in workloads.values())
    failed = sum(w["failed_ops"] for w in workloads.values())
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# ----------------------------------------------------------------------
# Command line.
# ----------------------------------------------------------------------

def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure timed passes for this long (default: "
                         "run_seconds of BENCHMARK.json), never fewer "
                         f"than {MIN_PASSES} passes")
    ap.add_argument("--passes", type=int, default=None,
                    help="exactly this many timed passes instead")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="add the traced, telemetry and unpinned passes "
                         "and the per-layer microbenchmarks")
    ap.add_argument("--json", metavar="OUT",
                    help="also write the full result here")
    ap.add_argument("--selfcheck", action="store_true",
                    help="cross-check against benchmarks/baselines")
    args = ap.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if args.passes is not None and args.passes < 1:
        ap.error("--passes must be at least 1")
    return args


def run_all(args, allowed_cpus) -> Dict[str, dict]:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    import ledger_workloads as lw

    out: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=lp.OUT_DIR) as tmp:
        for name in lw.GATED:
            part = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--json", str(part)]
            if args.passes is not None:
                cmd += ["--passes", str(args.passes)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            print(f"[ledger] {name} ...", file=sys.stderr, flush=True)
            with lp.unpinned(allowed_cpus):     # the child pins itself
                done = subprocess.run(cmd, capture_output=True, text=True)
            if not part.exists():
                raise LedgerError(f"{name} produced no result:\n"
                                  f"{done.stdout}\n{done.stderr}")
            with open(part) as fh:
                out[name] = json.load(fh)["workloads"][name]
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    allowed_cpus = os.sched_getaffinity(0) \
        if hasattr(os, "sched_getaffinity") else None
    pinned = lp.pin()
    lp.use_source_tree()
    import ledger_workloads as lw

    if args.selfcheck:
        return selfcheck()
    if args.workload != "all" and args.workload not in lw.WORKLOADS:
        raise SystemExit(f"ledger: unknown workload {args.workload!r}; "
                         f"have {sorted(lw.WORKLOADS)} or 'all'")
    seconds = args.seconds if args.seconds is not None \
        else lp.load_benchmark_json()["run_seconds"]
    lp.OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            workloads = run_all(args, allowed_cpus)
        else:
            workloads = {args.workload: run_workload(
                args.workload, args.seed, seconds, args.passes,
                bool(args.trace), allowed_cpus)}
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    result = envelope(args.seed, pinned, bool(args.trace), workloads)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(HEADER)
    print(f"pinned={pinned} noisy={result['noisy']} seed={args.seed} "
          f"calibration_version={lp.CALIBRATION_VERSION} "
          f"commit={result['git_commit']}")
    for name, rec in workloads.items():
        print_workload(name, rec)
    print(driver_line(workloads, bool(args.trace)))
    return 0 if all(w["failed_ops"] == 0 for w in workloads.values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
