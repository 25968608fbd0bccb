"""End-to-end correctness: every app, every mode, against numpy references.

This is the heart of the test suite: each of the paper's six programs
must compute the same answer as the sequential numpy reference when run

* sequentially through the interpreter,
* on base TreadMarks (pure run-time DSM),
* on every applicable compiler-optimization level (gauss also with
  barrier garbage collection on),
* hand-coded over message passing (the PVMe baseline), and
* through the XHPF lowering (where XHPF can parallelize it at all).
"""

import numpy as np
import pytest

from repro.apps import all_apps
from repro.errors import HpfError
from repro.harness.modes import applicable_levels
from repro.harness import run, run_seq

APPS = all_apps()
APP_NAMES = sorted(APPS)
LEVELS = ["base", "aggr", "aggr+cons", "merge", "push"]


def check(arrays, app):
    ref = app.reference(dict(app.datasets["tiny"].params))
    for name in app.check_arrays:
        np.testing.assert_allclose(
            arrays[name], ref[name], rtol=1e-9, atol=1e-12,
            err_msg=f"{app.name}: array {name!r} diverges")


@pytest.mark.parametrize("appname", APP_NAMES)
def test_sequential_matches_reference(appname):
    app = APPS[appname]
    seq = run_seq(app.program("tiny", 1))
    check(seq.arrays, app)
    assert seq.time > 0


@pytest.mark.parametrize("appname,gc_threshold",
                         [*((name, None) for name in APP_NAMES),
                          ("gauss", 32)],
                         ids=[*APP_NAMES, "gauss-gc32"])
@pytest.mark.parametrize("level", LEVELS)
def test_dsm_matches_reference(appname, gc_threshold, level):
    app = APPS[appname]
    levels = applicable_levels(app)
    if level not in levels:
        pytest.skip(f"{level} not applicable to {appname} (per the paper)")
    res = run(app, nprocs=4, opt=levels[level], page_size=256,
              gc_threshold=gc_threshold)
    check(res.arrays, app)


@pytest.mark.parametrize("data_plane", [None, "onesided"])
@pytest.mark.parametrize("page_size", [256, 1024, 4096])
def test_push_snapshot_with_several_columns_per_page(page_size, data_plane):
    """Push ships only the boundary column and subsumes the page's
    notices, so the receiver's copy of the page's other columns stays
    stale; the offline reconciliation must not trust it.  (At 1024 and
    4096 a page holds 2 and 8 of jacobi's 512-byte columns.)"""
    app = APPS["jacobi"]
    res = run(app, nprocs=4, opt=applicable_levels(app)["push"],
              page_size=page_size, data_plane=data_plane)
    check(res.arrays, app)


@pytest.mark.parametrize("appname", APP_NAMES)
def test_dsm_two_processors(appname):
    app = APPS[appname]
    res = run(app, nprocs=2, page_size=256)
    check(res.arrays, app)


@pytest.mark.parametrize("appname", APP_NAMES)
def test_pvme_matches_reference(appname):
    app = APPS[appname]
    res = run(app, mode="mp", nprocs=4)
    check(res.arrays, app)


@pytest.mark.parametrize("appname", APP_NAMES)
def test_xhpf_matches_reference_or_refuses(appname):
    app = APPS[appname]
    if app.xhpf_ok:
        res = run(app, mode="xhpf", nprocs=4)
        check(res.arrays, app)
    else:
        with pytest.raises(HpfError):
            run(app, mode="xhpf", nprocs=4)


@pytest.mark.parametrize("appname", APP_NAMES)
def test_optimized_dsm_never_slower_than_base(appname):
    """Aggregation + consistency elimination must not hurt (paper §6.4)."""
    app = APPS[appname]
    levels = applicable_levels(app)
    base = run(app, nprocs=4, page_size=256, snapshot=False)
    opt = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
              snapshot=False)
    assert opt.time <= base.time * 1.02


@pytest.mark.parametrize("appname", APP_NAMES)
def test_optimization_reduces_page_faults(appname):
    """Table 2: optimized programs have almost all page faults removed."""
    app = APPS[appname]
    levels = applicable_levels(app)
    base = run(app, nprocs=4, page_size=256, snapshot=False)
    opt = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
              snapshot=False)
    assert opt.stats.segv < base.stats.segv


@pytest.mark.parametrize("appname", APP_NAMES)
def test_optimization_reduces_messages(appname):
    app = APPS[appname]
    levels = applicable_levels(app)
    base = run(app, nprocs=4, page_size=256, snapshot=False)
    opt = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
              snapshot=False)
    assert opt.messages < base.messages


def test_is_consistency_elimination_removes_diffs():
    """IS with READ&WRITE_ALL creates no twins or diffs (paper §6.2)."""
    app = APPS["is"]
    levels = applicable_levels(app)
    res = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
              snapshot=False)
    assert res.stats.diffs_created == 0
    assert res.stats.full_pages_served > 0


def test_jacobi_write_all_increases_data():
    """The paper's Table 2 Jacobi anomaly: WRITE_ALL ships whole pages of
    mostly-unchanged data, so the optimized version moves MORE bytes."""
    app = APPS["jacobi"]
    levels = applicable_levels(app)
    base = run(app, nprocs=4, page_size=256, snapshot=False)
    cons = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
               snapshot=False)
    assert cons.data_bytes > base.data_bytes


def test_fft_push_reduces_false_sharing_data():
    """Push ships exact sections: less data than whole-page diffs."""
    app = APPS["fft3d"]
    levels = applicable_levels(app)
    cons = run(app, nprocs=4, opt=levels["aggr+cons"], page_size=256,
               snapshot=False)
    push = run(app, nprocs=4, opt=levels["push"], page_size=256,
               snapshot=False)
    assert push.data_bytes < cons.data_bytes


def test_deterministic_across_runs():
    app = APPS["jacobi"]
    r1 = run(app, nprocs=4, page_size=256, snapshot=False)
    r2 = run(app, nprocs=4, page_size=256, snapshot=False)
    assert r1.time == r2.time
    assert r1.messages == r2.messages
    assert r1.stats.as_dict() == r2.stats.as_dict()
