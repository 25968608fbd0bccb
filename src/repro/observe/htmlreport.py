"""Self-contained HTML run report (``python -m repro inspect --html``).

One stdlib-only generator: no external assets, scripts or fonts — the
output is a single file that renders offline.  It fuses the inspector's
three analyses (page timelines, contention profile, critical path)
with the wall-clock observatory's attribution into four figures:

1. Summary tiles — simulated time, messages, faults, events/sec.
2. Critical-path tiling — the bottleneck chain over simulated time,
   one colored tile per segment, colored by category.
3. Wall-clock attribution — where the *host* time went, one stacked
   bar over the profiler's subsystem buckets.
4. Contention — per-barrier-epoch wait bars and the hot-lock table —
   and the hot-page timeline lanes.

Every figure ships a ``<details>`` table view (the accessible,
copy-pastable form of the same numbers), native ``<title>`` hover
tooltips on every mark, and light + dark themes (``prefers-color-
scheme`` plus an explicit ``data-theme`` override on ``<html>``).
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

#: Categorical series colors, fixed assignment order (slot 1..5), one
#: value per theme: (light, dark).  Identity never comes from color
#: alone — every figure has a legend and a table view.
_CAT = (
    ("#2a78d6", "#3987e5"),   # 1 blue
    ("#eb6834", "#d95926"),   # 2 orange
    ("#1baf7a", "#199e70"),   # 3 aqua
    ("#eda100", "#c98500"),   # 4 yellow
    ("#e87ba4", "#d55181"),   # 5 magenta
)
_MUTED = ("#898781", "#898781")   # overflow / "other" — not a series hue

#: Critical-path categories in fixed slot order.
_CP_ORDER = ("compute", "protocol", "wait", "comm", "other")

#: Page-timeline transition groups in fixed slot order.
_TL_GROUPS = (
    ("fault", ("read_fault", "write_fault")),
    ("invalidate", ("invalidate", "protect_down", "gc_discard")),
    ("diff", ("diff_create", "diff_apply", "full_page", "twin",
              "home_flush", "home_apply")),
    ("transfer", ("page_fetch", "page_serve", "page_valid",
                  "write_enable", "push_recv",
                  "home_migrate", "overwrite", "interval")),
)

_CSS = """
:root { color-scheme: light dark;
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e;
  --muted: #898781; --grid: #e1e0d9; }
@media (prefers-color-scheme: dark) { :root {
  --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7;
  --grid: #2c2c2a; } }
html[data-theme="light"] { --surface: #fcfcfb; --ink: #0b0b0b;
  --ink2: #52514e; --grid: #e1e0d9; }
html[data-theme="dark"] { --surface: #1a1a19; --ink: #ffffff;
  --ink2: #c3c2b7; --grid: #2c2c2a; }
html[data-theme="light"] .dark-only,
html[data-theme="dark"] .light-only { display: none; }
@media (prefers-color-scheme: dark) {
  html:not([data-theme]) .light-only { display: none; } }
@media (prefers-color-scheme: light) {
  html:not([data-theme]) .dark-only { display: none; } }
html:not([data-theme="light"]):not([data-theme="dark"]) { }
body { background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
  max-width: 72rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.sub { color: var(--ink2); }
.tiles { display: flex; flex-wrap: wrap; gap: 1rem; }
.tile { border: 1px solid var(--grid); border-radius: 8px;
  padding: .8rem 1.2rem; min-width: 9rem; }
.tile .v { font-size: 1.5rem; font-weight: 600; }
.tile .k { color: var(--ink2); font-size: .85rem; }
.legend { display: flex; flex-wrap: wrap; gap: .4rem 1.1rem;
  margin: .4rem 0; color: var(--ink2); font-size: .85rem; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: .35rem; }
svg { display: block; max-width: 100%; }
svg rect:hover, svg circle:hover { opacity: .75; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { border-bottom: 1px solid var(--grid); padding: .25rem .7rem;
  text-align: right; } th { color: var(--ink2); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
details { margin: .4rem 0 1rem; }
summary { cursor: pointer; color: var(--ink2); font-size: .85rem; }
.axis { color: var(--muted); font-size: .75rem; }
"""


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:,.1f}"
    if isinstance(v, int):
        return f"{v:,}"
    return escape(str(v))


def _swatch(i: int) -> Tuple[str, str]:
    return _CAT[i] if i < len(_CAT) else _MUTED


def _themed_rect(x, y, w, h, color: Tuple[str, str], tip: str,
                 rx: int = 0) -> str:
    """One bar/tile, emitted once per theme (CSS picks the visible one);
    stroked with the surface color for the 2px-gap-between-fills rule."""
    tip = escape(tip)
    out = []
    for cls, fill in (("light-only", color[0]), ("dark-only", color[1])):
        out.append(
            f'<rect class="{cls}" x="{x:.2f}" y="{y:.2f}" '
            f'width="{max(w, 0.6):.2f}" height="{h:.2f}" rx="{rx}" '
            f'fill="{fill}" stroke="var(--surface)" stroke-width="1">'
            f"<title>{tip}</title></rect>")
    return "".join(out)


def _legend(entries: Sequence[Tuple[str, Tuple[str, str]]]) -> str:
    items = []
    for label, color in entries:
        items.append(
            f'<span><span class="sw light-only" '
            f'style="background:{color[0]}"></span>'
            f'<span class="sw dark-only" '
            f'style="background:{color[1]}"></span>'
            f"{escape(label)}</span>")
    return f'<div class="legend">{"".join(items)}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence],
           caption: str = "table view") -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_fmt(c)}</td>" for c in row) + "</tr>"
        for row in rows)
    return (f"<details><summary>{escape(caption)}</summary>"
            f"<table><tr>{head}</tr>{body}</table></details>")


def _tiles(items: Sequence[Tuple[str, str]]) -> str:
    tiles = "".join(
        f'<div class="tile"><div class="v">{escape(v)}</div>'
        f'<div class="k">{escape(k)}</div></div>'
        for k, v in items)
    return f'<div class="tiles">{tiles}</div>'


# ----------------------------------------------------------------------
# Figures.
# ----------------------------------------------------------------------

def _critpath_figure(critpath, width: int = 960) -> str:
    """The bottleneck chain as one tiled lane over simulated time."""
    segs = critpath.segments
    end = critpath.end_ts or 1.0
    colors = {name: _swatch(i) for i, name in enumerate(_CP_ORDER)}
    rects = []
    for seg in segs:
        x = width * seg.t0 / end
        w = width * seg.dur / end
        tip = (f"{seg.category} on P{seg.pid}: {seg.dur:,.1f}us "
               f"[{seg.t0:,.1f}..{seg.t1:,.1f}] {seg.detail}")
        rects.append(_themed_rect(x, 8, w, 28,
                                  colors.get(seg.category, _MUTED),
                                  tip, rx=2))
    totals = critpath.totals()
    svg = (f'<svg viewBox="0 0 {width} 58" role="img" '
           f'aria-label="critical path tiling">'
           + "".join(rects)
           + f'<text x="0" y="54" class="axis" fill="var(--muted)">0'
             f"</text>"
             f'<text x="{width}" y="54" text-anchor="end" class="axis" '
             f'fill="var(--muted)">{end:,.0f} us</text></svg>')
    legend = _legend([(f"{name} {totals.get(name, 0.0):,.0f}us",
                       colors[name]) for name in _CP_ORDER
                      if totals.get(name)])
    table = _table(
        ["segment", "pid", "t0 (us)", "t1 (us)", "dur (us)", "detail"],
        [[s.category, s.pid, round(s.t0, 1), round(s.t1, 1),
          round(s.dur, 1), s.detail]
         for s in critpath.top_segments(15)],
        caption=f"table view — top 15 of {len(segs)} segments")
    note = (f'<p class="sub">dominant: <b>{escape(critpath.dominant())}'
            f"</b>, {critpath.hops()} cross-processor hops, "
            f"{len(segs)} segments</p>")
    return svg + legend + note + table


def _attribution_figure(profile, width: int = 960) -> str:
    """Host wall-time per subsystem as one stacked horizontal bar."""
    att = profile.attribution()
    total = sum(att.values()) or 1.0
    ordered = sorted(att.items(), key=lambda kv: -kv[1])
    shown = ordered[:5]
    rest = ordered[5:]
    if rest:
        shown = shown + [("other", sum(v for _, v in rest))]
    rects, legend_entries, x = [], [], 0.0
    for i, (name, sec) in enumerate(shown):
        color = _swatch(i) if name != "other" else _MUTED
        w = width * sec / total
        tip = (f"{name}: {sec * 1e3:,.2f}ms "
               f"({100.0 * sec / total:,.1f}%)")
        rects.append(_themed_rect(x, 4, w, 26, color, tip, rx=2))
        legend_entries.append(
            (f"{name} {100.0 * sec / total:,.1f}%", color))
        x += w
    svg = (f'<svg viewBox="0 0 {width} 36" role="img" '
           f'aria-label="wall-clock attribution">{"".join(rects)}'
           f"</svg>")
    table = _table(["subsystem", "wall (ms)", "%"],
                   [[name, round(sec * 1e3, 3),
                     round(100.0 * sec / total, 2)]
                    for name, sec in ordered])
    note = (f'<p class="sub">{profile.n_events:,} events '
            f"({profile.events_per_sec():,.0f}/s), "
            f"{profile.n_accesses:,} accesses "
            f"({profile.accesses_per_sec():,.0f}/s), "
            f"{profile.n_stmts:,} interpreted statements, "
            f"{profile.run_s * 1e3:,.1f}ms host wall time</p>")
    return svg + _legend(legend_entries) + note + table


def _contention_figure(contention, width: int = 960) -> str:
    """Per-epoch barrier wait bars plus the hot-lock table."""
    epochs = contention.epochs()
    parts: List[str] = []
    if epochs:
        vmax = max(e.total_wait for e in epochs) or 1.0
        n = len(epochs)
        bw = max(min(width / max(n, 1) - 2, 48), 3)
        h = 120
        bars = []
        for i, ep in enumerate(epochs):
            bh = (h - 16) * ep.total_wait / vmax
            x = i * (width / max(n, 1)) + 1
            tip = (f"epoch {ep.epoch}: {ep.total_wait:,.1f}us total "
                   f"wait, spread {ep.spread:,.1f}us, straggler "
                   f"P{ep.straggler}")
            bars.append(_themed_rect(x, h - 14 - bh, bw, bh, _CAT[0],
                                     tip, rx=2))
        parts.append(
            f'<svg viewBox="0 0 {width} {120}" role="img" '
            f'aria-label="barrier wait by epoch">'
            f'<line x1="0" y1="{h - 14}" x2="{width}" y2="{h - 14}" '
            f'stroke="var(--grid)"/>{"".join(bars)}'
            f'<text x="0" y="{h - 2}" class="axis" '
            f'fill="var(--muted)">epoch 0..{epochs[-1].epoch}; bar = '
            f"total wait (max {vmax:,.0f}us)</text></svg>")
        parts.append(_table(
            ["epoch", "total wait (us)", "spread (us)", "straggler"],
            [[e.epoch, round(e.total_wait, 1), round(e.spread, 1),
              f"P{e.straggler}"] for e in epochs]))
    hot = contention.hot_locks(10)
    if hot:
        parts.append("<h3>Hot locks</h3>")
        parts.append(_table(
            ["lock", "acquires", "grants", "waiters",
             "total wait (us)", "max wait (us)"],
            [[l.lid, l.acquires, l.grants, len(l.waiters),
              round(l.total_wait, 1), round(l.max_wait, 1)]
             for l in hot],
            caption="hot locks (top 10 by total wait)"))
    if not parts:
        parts.append('<p class="sub">no synchronization waits '
                     "recorded</p>")
    return "".join(parts)


def _timeline_figure(timelines, end_ts: float,
                     width: int = 960, top: int = 8) -> str:
    """Hot-page lanes: one row per page, a mark per transition."""
    pages = timelines.hot_pages(top)
    if not pages:
        return '<p class="sub">no page activity recorded</p>'
    group_of: Dict[str, int] = {}
    for i, (_, kinds) in enumerate(_TL_GROUPS):
        for k in kinds:
            group_of[k] = i
    end = end_ts or 1.0
    lane_h, pad = 26, 70
    rows: List[str] = []
    for row, c in enumerate(pages):
        y = 8 + row * lane_h
        rows.append(
            f'<line x1="{pad}" y1="{y + 9}" x2="{width}" y2="{y + 9}" '
            f'stroke="var(--grid)"/>'
            f'<text x="0" y="{y + 13}" class="axis" '
            f'fill="var(--ink2)">page {c.page}</text>')
        for tr in timelines.transitions.get(c.page, ()):
            gi = group_of.get(tr.kind, 3)
            x = pad + (width - pad) * tr.ts / end
            tip = (f"page {c.page} t={tr.ts:,.1f}us P{tr.pid} "
                   f"e{tr.epoch}: {tr.kind} -> {tr.state} {tr.detail}")
            for cls, fill in (("light-only", _CAT[gi][0]),
                              ("dark-only", _CAT[gi][1])):
                rows.append(
                    f'<circle class="{cls}" cx="{x:.2f}" '
                    f'cy="{y + 9}" r="4" fill="{fill}" '
                    f'stroke="var(--surface)" stroke-width="1">'
                    f"<title>{escape(tip)}</title></circle>")
    h = 16 + len(pages) * lane_h + 14
    svg = (f'<svg viewBox="0 0 {width} {h}" role="img" '
           f'aria-label="hot page timelines">{"".join(rows)}'
           f'<text x="{pad}" y="{h - 2}" class="axis" '
           f'fill="var(--muted)">0</text>'
           f'<text x="{width}" y="{h - 2}" text-anchor="end" '
           f'class="axis" fill="var(--muted)">{end:,.0f} us</text>'
           f"</svg>")
    legend = _legend([(name, _CAT[i])
                      for i, (name, _) in enumerate(_TL_GROUPS)])
    table = _table(
        ["page", "faults", "invalidations", "diffs applied",
         "writers", "readers"],
        [[c.page, c.faults, c.invalidations, c.diffs_applied,
          len(c.writers), len(c.readers)] for c in pages],
        caption=f"table view — top {len(pages)} pages by heat")
    return svg + legend + table


# ----------------------------------------------------------------------
# Assembly.
# ----------------------------------------------------------------------

def build_html(report, profile=None, title: str = "run") -> str:
    """The whole report as one self-contained HTML document.

    ``report`` is a built :class:`repro.inspect.InspectReport`;
    ``profile`` an optional :class:`~repro.observe.WallProfiler` from
    the same run (without it the attribution figure is omitted).
    """
    out = report.outcome
    stats = out.stats
    tiles = [("simulated time", f"{out.time / 1e3:,.2f} ms"),
             ("messages", f"{out.messages:,}"),
             ("data volume", f"{out.data_bytes / 1024:,.0f} KiB")]
    if stats is not None:
        tiles.append(("page faults", f"{stats.segv:,}"))
    if profile is not None:
        tiles.append(("engine throughput",
                      f"{profile.events_per_sec():,.0f} ev/s"))
    problems = report.reconcile()
    recon = ("all analyses reconcile with the protocol's own counters"
             if not problems else
             f"{len(problems)} reconciliation mismatches: "
             + "; ".join(problems[:3]))
    sections = [
        f"<h1>repro run report — {escape(title)}</h1>",
        f'<p class="sub">{escape(recon)}</p>',
        _tiles(tiles),
        "<h2>Critical path</h2>",
        _critpath_figure(report.critpath),
    ]
    if profile is not None:
        sections.append("<h2>Wall-clock attribution</h2>")
        sections.append(_attribution_figure(profile))
    sections.append("<h2>Contention</h2>")
    sections.append(_contention_figure(report.contention))
    sections.append("<h2>Hot pages</h2>")
    sections.append(_timeline_figure(report.timelines, out.time))
    body = "\n".join(sections)
    return (f"<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            f'<meta charset="utf-8">\n'
            f'<meta name="viewport" '
            f'content="width=device-width, initial-scale=1">\n'
            f"<title>repro report — {escape(title)}</title>\n"
            f"<style>{_CSS}</style>\n</head>\n<body>\n{body}\n"
            f"</body>\n</html>\n")


def write_html(path: str, report, profile=None,
               title: str = "run") -> None:
    with open(path, "w") as fh:
        fh.write(build_html(report, profile=profile, title=title))


__all__ = ["build_html", "write_html"]
