"""Backend conformance where the run matrix does not reach.

Every backend's matrix cells already pass every oracle in
``tests/integration/test_inspect_sweep.py``.  Parametrized over the
backend registry, these tests add the configurations the matrix does
not hold: shallow at the ``merge`` level (read from the cell's one
judged run, :mod:`tests.integration.judged`), the paper's
8-processor configuration, and hlrc's own-home invariant.
"""

import numpy as np
import pytest

from repro.apps import all_apps
from repro.harness import RunSpec, run, run_matrix
from repro.tm.backends.hlrc import HlrcBackend
from repro.tm.coherence import protocols
from repro.tm.node import TmNode

from .judged import cell, judged

BACKENDS = sorted(protocols())
APPS = all_apps()


def check(app_name, arrays):
    """The repo's result contract: each app's check_arrays vs reference."""
    app = APPS[app_name]
    ref = app.reference(dict(app.datasets["tiny"].params))
    for name in app.check_arrays:
        np.testing.assert_allclose(
            arrays[name], ref[name], rtol=1e-9, atol=1e-12,
            err_msg=f"{app_name}: array {name!r} diverges")


def test_registry_lists_all_backends():
    assert set(BACKENDS) == {"mw-lrc", "hlrc"}


@pytest.mark.parametrize("protocol", BACKENDS)
@pytest.mark.parametrize("app,opt", [("shallow", "merge")])
def test_results_match_reference(app, opt, protocol):
    """Shallow/merge is a level the paper does not report for the app
    (Figure 6's n/a bar), so the run matrix holds no cell for it."""
    assert judged(cell(app, "dsm", opt, protocol)).result == []


def test_hlrc_home_never_fetches_its_own_page(monkeypatch):
    """A home's copy of its pages is never invalidated (the ordering
    argument in :mod:`repro.tm.backends.hlrc`), so no hlrc fetch names
    a page the fetching node homes: not on any hlrc matrix cell, and not
    in barrier GC's validate phase, which fetches too."""
    own, in_gc, gc_fetches = [], set(), []
    begin, gc_validate = HlrcBackend.begin_fetch, TmNode._gc_validate

    def spy_begin(self, pages):
        pid = self.node.pid
        own.extend((pid, p) for p in pages if self.home_map[p] == pid)
        if pid in in_gc:
            gc_fetches.extend(pages)
        return begin(self, pages)

    def spy_gc_validate(self):
        in_gc.add(self.pid)
        try:
            gc_validate(self)
        finally:
            in_gc.discard(self.pid)

    monkeypatch.setattr(HlrcBackend, "begin_fetch", spy_begin)
    monkeypatch.setattr(TmNode, "_gc_validate", spy_gc_validate)
    for spec in run_matrix(protocols=["hlrc"]):
        run(spec, snapshot=False)
    run(RunSpec(app="gauss", nprocs=4, page_size=256, gc_threshold=16,
                protocol="hlrc", snapshot=False))
    assert gc_fetches, "the GC run never fetched"
    assert own == []


@pytest.mark.parametrize("protocol", BACKENDS)
def test_eight_procs_paper_config(protocol):
    """The paper's 8-processor runs hold under every backend."""
    for app in ("jacobi", "is"):
        out = run(RunSpec(app=app, mode="dsm", dataset="tiny",
                          nprocs=8, opt="base", page_size=1024,
                          protocol=protocol))
        check(app, out.arrays)


def test_mw_lrc_and_home_backends_differ_only_in_traffic():
    """Same answers, different message economy (IS is multi-writer
    heavy: hlrc's home flushes beat mw-lrc's per-reader diff serving)."""
    mw = run(RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                     opt="base", page_size=1024, protocol="mw-lrc"))
    hl = run(RunSpec(app="is", mode="dsm", dataset="tiny", nprocs=4,
                     opt="base", page_size=1024, protocol="hlrc"))
    for name in mw.arrays:
        assert np.array_equal(mw.arrays[name], hl.arrays[name])
    assert hl.messages < mw.messages
    assert hl.stats.home_flushes > 0
    assert hl.stats.page_fetches > 0
    assert mw.stats.home_flushes == 0
    assert mw.stats.page_fetches == 0
