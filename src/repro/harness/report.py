"""ASCII rendering of the reproduced tables and figures."""

from __future__ import annotations

from typing import List, Optional


def _fmt(value, width: int = 7, digits: int = 2) -> str:
    if value is None:
        return "n/a".rjust(width)
    if isinstance(value, float):
        return f"{value:{width}.{digits}f}"
    return str(value).rjust(width)


def render_table(title: str, headers: List[str], rows: List[List],
                 note: Optional[str] = None) -> str:
    # Format every cell once at its natural width, derive column widths
    # from the rendered strings, then pad — so a cell can never render
    # wider than the width it was measured at.
    cells = [[cell if isinstance(cell, str) else _fmt(cell, width=1)
              for cell in row] for row in rows]
    widths = [max(len(h), 7) for h in headers]
    for row in cells:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    out = [title, "=" * len(title)]
    out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(t.rjust(w) for t, w in zip(row, widths)))
    if note:
        out.append("")
        out.append(note)
    return "\n".join(out)


def render_table1(rows) -> str:
    table = [[r["app"], r["dataset"],
              " ".join(f"{k}={v}" for k, v in r["params"].items()),
              r["paper_secs"], r["simulated_secs"]] for r in rows]
    return render_table(
        "Table 1: data sets and uniprocessor times (seconds)",
        ["app", "dataset", "params", "paper", "simulated"], table,
        note=("The paper's sizes are calibration targets for the cost "
              "model; 'simulated' rows are the scaled sets this harness "
              "actually runs."))


def render_table2(rows) -> str:
    table = [[r["app"], r["best_level"], r["segv_pct"], r["msg_pct"],
              r["data_pct"]] for r in rows]
    return render_table(
        "Table 2: % reduction, compiler-optimized vs base TreadMarks",
        ["app", "best level", "% segv", "% msg", "% data"], table,
        note=("Negative %data means the optimized version moves MORE "
              "bytes (whole pages instead of small diffs), as the paper "
              "reports for Jacobi."))


def render_figure5(rows) -> str:
    table = [[r["app"], r["Tmk"], r["Opt-Tmk"], r["XHPF"], r["PVMe"]]
             for r in rows]
    return render_table(
        "Figure 5: speedups at 8 processors",
        ["app", "Tmk", "Opt-Tmk", "XHPF", "PVMe"], table,
        note="The XHPF entry for IS is n/a: XHPF cannot parallelize it.")


def render_figure6(rows) -> str:
    headers = ["app", "base", "aggr", "aggr+cons", "merge", "push",
               "XHPF", "PVMe"]
    table = [[r["app"], r.get("base"), r.get("aggr"), r.get("aggr+cons"),
              r.get("merge"), r.get("push"), r.get("XHPF"), r.get("PVMe")]
             for r in rows]
    return render_table(
        "Figure 6: speedups at 8 processors, by optimization level",
        headers, table,
        note=("n/a bars match the paper: no merge/Push for Shallow "
              "(procedure boundaries), no Push for IS/Gauss/MGS, no XHPF "
              "for IS."))


def render_breakdown(rows) -> str:
    headers = ["app", "mode", "speedup", "compute%", "protect%",
               "twin%", "diff%", "barrier%", "lock%", "fetch%", "other%"]
    table = [[r["app"], r["mode"], r["speedup"], r["compute"],
              r["protect"], r["twin"], r["diff"], r["barrier"],
              r["lock"], r["fetch"], r["other"]] for r in rows]
    return render_table(
        "Execution-time breakdown (per-processor average, % of run time)",
        headers, table,
        note=("'other' covers message send/receive CPU, interrupt "
              "servicing and residual idle."))


def render_scaling(rows) -> str:
    if not rows:
        return "Scaling: no data"
    keys = [k for k in rows[0] if k != "app"]
    table = [[r["app"]] + [r[k] for k in keys] for r in rows]
    return render_table("Speedup scaling with processor count",
                        ["app"] + keys, table)


def render_sensitivity(rows) -> str:
    table = [[r["comm_cost_x"], r["Tmk"], r["Opt-Tmk"], r["PVMe"]]
             for r in rows]
    return render_table("Communication-cost sensitivity (Jacobi)",
                        ["comm x", "Tmk", "Opt-Tmk", "PVMe"], table)


def render_figure7(rows) -> str:
    table = [[r["app"], r["Tmk"], r["Sync"], r["Async"]] for r in rows]
    return render_table(
        "Figure 7: synchronous vs asynchronous data fetching",
        ["app", "Tmk", "Sync", "Async"], table)
