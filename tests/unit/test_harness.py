"""Unit tests for harness plumbing: modes, reports, registry, runner,
and the paper's claims as records (on hand-built rows, no simulation)."""

import pathlib
import re

import pytest

from repro.apps import all_apps, get_app
from repro.compiler import OptConfig
from repro.harness import experiments as ex
from repro.harness import layout_for, run
from repro.harness.modes import (OPT_LEVELS, applicable_levels,
                                 sync_fetch_variant)
from repro.harness.report import render_table


def test_registry_has_all_six_apps():
    apps = all_apps()
    assert set(apps) == {"jacobi", "fft3d", "is", "shallow", "gauss",
                         "mgs"}
    for app in apps.values():
        assert {"large", "small", "bench", "tiny"} <= set(app.datasets)
        assert app.datasets["large"].paper_uniproc_secs is not None
        assert app.datasets["small"].paper_uniproc_secs is not None


def test_get_app_unknown_raises():
    with pytest.raises(KeyError):
        get_app("nonesuch")


def test_opt_levels_are_cumulative():
    assert OPT_LEVELS["base"] is None
    assert not OPT_LEVELS["aggr"].consistency_elimination
    assert OPT_LEVELS["aggr+cons"].consistency_elimination
    assert OPT_LEVELS["merge"].sync_data_merge
    assert OPT_LEVELS["push"].push


def test_applicable_levels_match_paper():
    apps = all_apps()
    assert "merge" not in applicable_levels(apps["shallow"])
    assert "push" not in applicable_levels(apps["shallow"])
    for name in ("is", "gauss", "mgs"):
        assert "push" not in applicable_levels(apps[name])
    assert set(applicable_levels(apps["jacobi"])) == set(OPT_LEVELS)


def test_sync_fetch_variant():
    opt = sync_fetch_variant(OPT_LEVELS["aggr+cons"])
    assert not opt.asynchronous
    assert opt.consistency_elimination


def test_layout_for_skips_private_arrays():
    app = get_app("jacobi")
    layout = layout_for(app.program("tiny", 1), page_size=256)
    assert "b" in layout.arrays
    assert "a" not in layout.arrays


def test_render_table_handles_none_and_strings():
    text = render_table("T", ["a", "b"], [["x", None], ["y", 1.5]])
    assert "n/a" in text
    assert "1.50" in text


def test_render_table_aligns_wide_floats():
    # A float wider than its column's header (large simulated times)
    # must widen the column, not overflow it.
    text = render_table("T", ["app", "t"],
                        [["jacobi", 12345678901.25], ["is", 1.5]])
    lines = text.splitlines()
    header, rule, row1, row2 = lines[2:6]
    assert len(header) == len(rule) == len(row1) == len(row2)
    assert "12345678901.25" in row1
    # Columns stay aligned: every cell right-justified at one width.
    assert row2.endswith("1.50")
    assert row1.index("12345678901.25") + len("12345678901.25") \
        == len(row1)


def test_render_table_mixed_width_columns():
    text = render_table("T", ["k", "v"],
                        [["tiny", 0.5], ["huge", 98765432.109],
                         ["none", None], ["int", 1234567890]])
    lines = text.splitlines()
    assert len({len(l) for l in lines[2:8]}) == 1


def _rows(name, *values):
    return [dict(zip(ex.ARTIFACTS[name].columns, v)) for v in values]


#: Hand-built rows in each driver's shape, shaped like the paper's
#: results: every claim holds on them.
ROWS = {
    "micro": _rows("micro", ("roundtrip", 365, 366.8), ("lock", 427, 429.5)),
    "table1": _rows("table1", ("is", "large", "N=8", 91.2, None),
                    ("is", "small", "N=4", 3.9, None),
                    ("is", "bench", "N=2", None, 2.0)),
    "table2": _rows("table2", ("jacobi", "push", 100.0, 79.9, -2312.0),
                    ("fft3d", "push", 99.2, 70.6, 46.3),
                    ("is", "aggr+cons", 99.5, 96.5, 66.3),
                    ("gauss", "merge", 100.0, 40.0, 0.4),
                    ("mgs", "merge", 100.0, 53.5, 40.5)),
    "figure5": _rows("figure5", ("jacobi", 6.0, 7.0, 7.5, 8.0),
                     ("fft3d", 3.5, 7.5, 7.5, 8.0), ("is", 3.5, 7.5, None, 8),
                     ("gauss", 3.5, 6.0, 6.2, 6.5)),
    "figure6": _rows("figure6", ("jacobi", 4.0, 6.0, 6.5, 7.0, 7.5, 7.8, 8.0),
                     ("fft3d", 2.0, 6.0, 5.8, 5.5, 7.5, 7.8, 8.0),
                     ("is", 3.0, 5.0, 5.7, 5.6, None, None, 7.0),
                     ("gauss", 3.5, 3.8, 3.9, 4.2, None, 6.4, 6.9),
                     ("mgs", 5.0, 5.5, 5.6, 5.7, None, 6.7, 6.8)),
    "figure7": _rows("figure7", ("jacobi", 6.0, 7.0, 7.5),
                     ("fft3d", 2.0, 7.0, 7.5), ("is", 2.6, 5.5, 5.7),
                     ("gauss", 3.5, 4.1, 4.2)),
    "breakdown": _rows(
        "breakdown",
        ("is", "base", 2.6, 35.0, 0.5, 0.3, 1.3, 17.7, 4.6, 29.2, 11.4),
        ("is", "aggr+cons", 5.7, 76.0, 0.9, 0.0, 0.8, 3.3, 8.3, 5.3, 5.4),
        ("jacobi", "base", 7.0, 87.0, 2.1, 0.5, 0.6, 5.6, 0.0, 1.7, 2.5),
        ("jacobi", "push", 7.8, 97.8, 0.3, 0.1, 0.1, 1.2, 0.0, 0.0, 0.5)),
    "scaling": _rows("scaling", ("jacobi", 1.8, 2.0, 3.6, 3.9, 7.0, 7.8),
                     ("shallow", 0.72, 1.83, 1.39, 3.41, 2.61, 6.9)),
    "sensitivity": _rows("sensitivity", (0.25, 7.0, 7.8, 7.9),
                         (4.0, 6.5, 7.7, 7.9)),
    "ablation": _rows(
        "ablation", ("4 KB pages, base", "data B", 99, 223, 125.4),
        ("4 KB pages, push", "data B", 131, 158, 20.7),
        ("bcast as n-1 sends", "sim ms", 790.0, 796.6, 0.8),
        ("4x interrupts, base", "sim ms", 150.0, 152.8, 1.8),
        ("4x interrupts, PVMe", "sim ms", 120.0, 120.0, 0.0),
        ("eager diffing", "diffs", 630, 758, 20.3),
        ("eager diffing, time", "sim ms", 150.0, 150.7, 0.4)),
}


def test_renderers_accept_driver_shapes():
    assert set(ROWS) == set(ex.ARTIFACTS)
    for name, art in ex.ARTIFACTS.items():
        text = art.render(ROWS[name])
        assert text.startswith(art.title) and "NO VERDICT" not in text
        assert all(f"holds         {c.id}: " in text for c in art.claims)


def _one_edit_flips(claim, rows) -> bool:
    """Some single number of ``rows``, edited, changes ``claim``'s
    verdict (an edit that breaks the arithmetic does not count)."""
    for i, row in enumerate(rows):
        for key, value in row.items():
            if isinstance(value, str):
                continue
            for new in ([1.0] if value is None
                        else [None, 0.0, -value, 100 * value + 100]):
                edited = [dict(r) for r in rows]
                edited[i][key] = new
                try:
                    if claim.verdict(edited) != "holds":
                        return True
                except (TypeError, ZeroDivisionError):
                    pass
    return False


@pytest.mark.parametrize("name", sorted(ex.ARTIFACTS))
def test_every_claim_evaluates_and_one_edit_flips_it(name):
    for claim in ex.ARTIFACTS[name].claims:
        assert _one_edit_flips(claim, ROWS[name]), claim.id


def test_claim_ids_are_unique_and_deviations_are_defined():
    """A claim's id names its artifact, and a claim that may deviate
    cites a Known deviation EXPERIMENTS.md defines and bounds, per
    program, how far beyond the paper's band it explains."""
    doc = (pathlib.Path(__file__).resolve().parents[2]
           / "EXPERIMENTS.md").read_text()
    defined = {int(n) for n in re.findall(
        r"^(\d+)\. ", doc.split("## Known deviations")[1], re.M)}
    ids = []
    for name, art in ex.ARTIFACTS.items():
        for claim in art.claims:
            assert claim.id.startswith(f"{name}."), claim.id
            assert claim.deviation in defined | {None}, claim.id
            assert (claim.deviation is None) == (not claim.explains)
            lo, hi = claim.band
            assert not any(lo <= far <= hi
                           for far in claim.explains.values()), claim.id
            ids.append(claim.id)
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim_id, app, col, value, verdict", [
    # Within what the cited deviation explains; past it; and the same
    # miss by a program the deviation does not name.
    ("table2.segv", "is", "% segv", 80.0, "deviates (7)"),
    ("table2.segv", "is", "% segv", 50.0, None),
    ("table2.segv", "jacobi", "% segv", 80.0, None),
    ("table2.data_gauss_mgs", "gauss", "% data", -188.0, "deviates (2)"),
    ("table2.data_gauss_mgs", "gauss", "% data", -400.0, None),
    ("figure5.improvement", "fft3d", "Tmk", 2.0, "deviates (5)"),
    ("figure5.improvement", "fft3d", "Tmk", 0.5, None),
    ("figure5.improvement", "jacobi", "Tmk", 7.5, None),
    ("figure5.large_gains", "fft3d", "Tmk", 2.0, "deviates (5)"),
    ("figure5.large_gains", "is", "Tmk", 4.5, None),
    ("figure5.base_gap", "fft3d", "Tmk", 2.0, "deviates (5)"),
    ("figure5.base_gap", "fft3d", "Tmk", 1.0, None),
    ("figure5.base_gap", "jacobi", "Tmk", 2.0, None),
    ("figure5.opt_gap", "gauss", "Opt-Tmk", 4.2, "deviates (6)"),
    ("figure5.opt_gap", "gauss", "Opt-Tmk", 3.6, None),
    ("figure5.opt_gap", "jacobi", "Opt-Tmk", 5.0, None),
    ("figure5.xhpf_gap", "gauss", "Opt-Tmk", 4.2, "deviates (6)"),
    ("figure5.xhpf_gap", "gauss", "Opt-Tmk", 3.6, None),
    ("figure7.async_dominates", "jacobi", "Async", 6.9, None),
    ("scaling.gain_grows", "shallow", "Opt@8", 6.0, "deviates (6)"),
    ("scaling.gain_grows", "shallow", "Opt@8", 5.5, None),
    ("scaling.gain_grows", "jacobi", "Opt@8", 7.0, None),
])
def test_a_deviation_explains_only_its_programs_and_distance(
        claim_id, app, col, value, verdict):
    name = claim_id.split(".")[0]
    claim, = [c for c in ex.ARTIFACTS[name].claims if c.id == claim_id]
    rows = [dict(r, **{col: value}) if r["app"] == app else r
            for r in ROWS[name]]
    assert claim.verdict(rows) == verdict


def test_a_run_without_snapshot_returns_no_arrays():
    res = run("jacobi", nprocs=2, page_size=256, snapshot=False)
    assert res.arrays == {}
    assert res.time > 0


def test_opt_config_is_hashable_and_frozen():
    opt = OptConfig(name="x")
    with pytest.raises(Exception):
        opt.push = True
    assert isinstance(hash(opt), int)


def test_cli_entry_point():
    from repro.__main__ import main
    assert main(["table1", "--dataset", "tiny"]) == 0
