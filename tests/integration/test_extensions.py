"""Barrier-time garbage collection (the one extension beyond the paper's
implementation this repository keeps) under full application workloads.
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.compiler import OptConfig
from repro.harness.runner import run_dsm


def check(res, app, dataset="tiny"):
    ref = app.reference(dict(app.datasets[dataset].params))
    for name in app.check_arrays:
        np.testing.assert_allclose(res.arrays[name], ref[name],
                                   rtol=1e-9, atol=1e-12)


class TestGcUnderApps:
    @pytest.mark.parametrize("appname", ["jacobi", "gauss", "is"])
    def test_apps_correct_with_aggressive_gc(self, appname):
        app = get_app(appname)
        res = run_dsm(app.program("tiny", 4), nprocs=4, opt=None,
                      page_size=256, gc_threshold=16)
        check(res, app)

    def test_gc_with_optimizations(self):
        app = get_app("jacobi")
        opt = OptConfig(push=True, name="full")
        res = run_dsm(app.program("tiny", 4), nprocs=4, opt=opt,
                      page_size=256, gc_threshold=16)
        check(res, app)
