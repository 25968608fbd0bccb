"""The paper's ``small`` data sets at the paper's configuration.

    PYTHONPATH=src python benchmarks/paper_sizes.py [--apps A ...]
        [--critpath]

Runs each app at Table 1's ``small`` set, 8 processors and 4 KB pages,
at ``base`` and at the level that is best at ``bench`` (Table 2), plus
the uniprocessor run the speedups divide.  Gauss, MGS and Shallow run
with barrier garbage collection (``gc_threshold=200``); the others
without.  Every run gets a fresh interpreter whose address space is
capped (``RLIMIT_AS``, :data:`LIMIT_GB`), so a run over budget ends as a
recorded ``MemoryError`` instead of exhausting the machine.

Prints, per run: simulated seconds, speedup, host seconds and peak RSS
(the child's ``ru_maxrss``).  ``--critpath`` adds the critical path's
category split of ``jacobi`` at ``base`` and ``push`` (a traced run, as
``python -m repro inspect`` builds it).  Host figures depend on the
machine; the simulated ones do not.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from time import perf_counter

APPS = ("jacobi", "fft3d", "is", "shallow", "gauss", "mgs")
#: The best level of each app at ``bench`` (EXPERIMENTS.md, Table 2).
BEST = {"jacobi": "push", "fft3d": "push", "is": "aggr+cons",
        "shallow": "aggr+cons", "gauss": "merge", "mgs": "merge"}
#: Apps whose history outgrows memory without barrier GC.
GC_THRESHOLD = {"gauss": 200, "mgs": 200, "shallow": 200}
SIZING = {"dataset": "small", "nprocs": 8, "page_size": 4096}
#: Address-space cap of each run's process: under what the host has.
LIMIT_GB = 5


def child(cell: dict) -> dict:
    """Run one cell in this process; its figures."""
    from repro.harness import RunSpec, run

    t0 = perf_counter()
    try:
        if cell["mode"] == "seq":
            out = run(RunSpec(app=cell["app"], mode="seq",
                              dataset="small"))
        else:
            out = run(RunSpec(app=cell["app"], opt=cell["opt"],
                              snapshot=False, telemetry=cell["critpath"],
                              gc_threshold=GC_THRESHOLD.get(cell["app"]),
                              **SIZING))
        got = {"time_us": out.time}
        if cell["critpath"]:
            from repro.inspect.report import InspectReport
            got["critpath_us"] = InspectReport.build(out).critpath \
                .as_dict(0)["totals_us"]
    except MemoryError:
        got = {"error": "MemoryError"}
    got["host_s"] = perf_counter() - t0
    got["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return got


def measure(cell: dict) -> dict:
    """One cell in a fresh interpreter under the address-space cap."""
    limit = LIMIT_GB * 2 ** 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run([sys.executable, __file__, "--child",
                           json.dumps(cell)], capture_output=True,
                          text=True, preexec_fn=cap)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {**cell, "error": f"exit {done.returncode}: {tail[0]}"}
    return {**cell, **json.loads(done.stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--apps", nargs="+", default=list(APPS),
                    choices=APPS)
    ap.add_argument("--critpath", action="store_true")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    cells = []
    for app in args.apps:
        cells.append({"app": app, "mode": "seq", "opt": None,
                      "critpath": False})
        for opt in ("base", BEST[app]):
            cells.append({"app": app, "mode": "dsm", "opt": opt,
                          "critpath": False})
    if args.critpath:
        cells += [{"app": "jacobi", "mode": "dsm", "opt": opt,
                   "critpath": True} for opt in ("base", "push")]
    seq = {}
    print(f"{'run':<28} {'sim s':>9} {'speedup':>8} {'host s':>8} "
          f"{'peak RSS MB':>12}  note")
    for cell in cells:
        row = measure(cell)
        name = f"{row['app']}/small " + (row["opt"] or "seq")
        if row.get("critpath"):
            name += " traced"
        if "time_us" not in row:
            print(f"{name:<28} {row['error']}", flush=True)
            continue
        if row["mode"] == "seq":
            seq[row["app"]] = row["time_us"]
        speedup = seq.get(row["app"], float("nan")) / row["time_us"]
        note = f"gc_threshold={GC_THRESHOLD[row['app']]}" \
            if row["app"] in GC_THRESHOLD and row["mode"] != "seq" else ""
        if "critpath_us" in row:
            total = sum(row["critpath_us"].values())
            note = " ".join(f"{k} {100 * v / total:.1f}%" for k, v in
                            row["critpath_us"].items())
        print(f"{name:<28} {row['time_us'] / 1e6:>9.3f} {speedup:>8.2f} "
              f"{row['host_s']:>8.1f} {row['rss_mb']:>12.0f}  {note}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
