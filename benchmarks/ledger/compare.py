"""Compare two ledger results: ``compare.py A.json B.json``.

For every (workload, end-to-end metric) prints one of

* ``improved``   B is better than A by more than the quartile spread
  of the passes (by more than the bound, for a metric without one);
* ``unchanged``  B is no worse than A by more than the metric's bound;
* ``worse``      B is worse than A by more than the bound;
* ``unresolved`` the quartile spread of the passes (of either side)
  exceeds the bound, so the pair cannot tell -- or an exact metric
  was measured on different seeds of a seeded workload.

Bounds come from BENCHMARK.json.  Exact metrics (``sim_time_us`` and
every ``count`` per-layer metric) compare with ``==``.  Exits non-zero
on any ``worse`` or on a higher ``failed_ops / ops``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

import ledger_protocol as lp


def quartile_spread(m: dict) -> Optional[float]:
    """(q3 - q1) / median of a timing's samples; None without them."""
    if "q1" not in m:
        return None
    return (m["q3"] - m["q1"]) / m["median"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Improved / unchanged / worse / unresolved for one measurement.

    A gain counts only beyond the samples' own spread (beyond the
    bound for a metric measured once per run)."""
    spreads = [s for s in (quartile_spread(a), quartile_spread(b))
               if s is not None]
    margin = max(spreads) if spreads else bound
    if margin > bound:
        return "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    return "improved" if worse_by < -margin else "unchanged"


def exact_verdict(a: float, b: float, better: str,
                  comparable: bool) -> str:
    if not comparable:
        return "unresolved"
    if a == b:
        return "unchanged"
    return "improved" if (b < a) == (better == "lower") else "worse"


def compare(a: dict, b: dict, bounds: Dict[str, float]) \
        -> Tuple[List[Tuple], List[str]]:
    """Rows ``(workload, metric, a, b, verdict)`` and problem lines."""
    rows: List[Tuple] = []
    problems: List[str] = []
    same_seed = a.get("seed") == b.get("seed")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        # Simulation-only numbers compare across seeds only where the
        # seed does not reach the simulation.
        comparable = same_seed or wa.get("seed_independent", False)
        for metric, (_, better) in lp.END_TO_END.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            if metric in lp.EXACT_END_TO_END:
                v = exact_verdict(ma["value"], mb["value"], better,
                                  comparable)
            else:
                v = verdict(ma, mb, bounds[metric], better)
            rows.append((name, metric, ma["value"], mb["value"], v))
        changed = [
            metric for metric, (_, _, kind) in lp.PER_LAYER.items()
            if kind == "count" and comparable
            and metric in wa["per_layer"] and metric in wb["per_layer"]
            and wa["per_layer"][metric]["value"]
            != wb["per_layer"][metric]["value"]]
        if changed:
            problems.append(f"{name}: count metrics changed: "
                            f"{', '.join(changed)}")
        fa = wa["failed_ops"] / wa["ops"]
        fb = wb["failed_ops"] / wb["ops"]
        if fb > fa:
            problems.append(f"{name}: failed_ops/ops rose from "
                            f"{wa['failed_ops']}/{wa['ops']} to "
                            f"{wb['failed_ops']}/{wb['ops']}")
            rows.append((name, "failed_ops/ops", fa, fb, "worse"))
    return rows, problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = docs
    if a.get("calibration_version") != b.get("calibration_version"):
        print("calibration_version differs: wall_norm does not compare",
              file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"]
              for m in lp.load_benchmark_json()["end_to_end"]}
    rows, problems = compare(a, b, bounds)
    print(f"{'workload':16s} {'metric':15s} {'A':>14s} {'B':>14s} "
          f"{'B vs A':>8s}  verdict")
    for name, metric, va, vb, v in rows:
        delta = f"{100.0 * (vb - va) / va:+.2f}%" if va else "n/a"
        print(f"{name:16s} {metric:15s} {va:14.6g} {vb:14.6g} "
              f"{delta:>8s}  {v}")
    for line in problems:
        print(line)
    for side, doc in (("A", a), ("B", b)):
        if doc.get("noisy"):
            print(f"note: {side} was measured on a noisy machine")
    return 1 if any(r[4] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
