"""ASCII rendering of tables: the paper's artifacts, inspections, sweeps."""

from __future__ import annotations

from typing import List, Optional


def fmt(value) -> str:
    """A cell or claim value: ``n/a``, a float to 2 decimals, or as is."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(title: str, headers: List[str], rows: List[List],
                 note: Optional[str] = None) -> str:
    # Format every cell once at its natural width, derive column widths
    # from the rendered strings, then pad — so a cell can never render
    # wider than the width it was measured at.
    cells = [[cell if isinstance(cell, str) else fmt(cell)
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
