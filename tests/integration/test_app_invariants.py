"""Mathematical invariants of the applications' results.

Beyond matching the numpy reference, the computed answers must satisfy
the defining properties of each algorithm — a different, stronger kind
of oracle (catches reference bugs too).
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.apps.gauss import _init_matrix as gauss_matrix
from repro.apps.is_sort import _keys_for
from repro.apps.mgs import _init_matrix as mgs_matrix
from repro.compiler import OptConfig
from repro.harness import run

FULL = OptConfig(push=True, name="full")


def dsm_result(appname, nprocs=4):
    app = get_app(appname)
    res = run(appname, nprocs=nprocs, opt=FULL, page_size=256)
    return app, res


def test_mgs_result_is_orthonormal():
    app, res = dsm_result("mgs")
    q = res.arrays["a"]
    gram = q.T @ q
    np.testing.assert_allclose(gram, np.eye(q.shape[1]), atol=1e-8)


def test_mgs_preserves_column_span():
    """Each original column lies in the span of the first i+1 Q columns:
    A = QR with R upper triangular."""
    app, res = dsm_result("mgs")
    q = res.arrays["a"]
    params = dict(app.datasets["tiny"].params)
    a0 = mgs_matrix(params.get("M", params["N"]), params["N"])
    r = q.T @ a0
    lower = np.tril(r, k=-1)
    np.testing.assert_allclose(lower, 0.0, atol=1e-8)


def test_gauss_lu_reconstructs_permuted_matrix():
    """The in-place factors satisfy L @ U == P A (partial pivoting)."""
    app, res = dsm_result("gauss")
    params = dict(app.datasets["tiny"].params)
    N = params["N"]
    lu = res.arrays["a"]
    piv = res.arrays["pivrow"]
    a = gauss_matrix(N)
    # Replay the row swaps on trailing columns to build P A.
    for k in range(N - 1):
        r = int(piv[k])
        if r != k:
            cols = np.arange(k, N)
            a[np.ix_([k, r], cols)] = a[np.ix_([r, k], cols)]
        # Subsequent swaps operate on the already-eliminated matrix, so
        # replay elimination as well (same order as the algorithm).
        a[k + 1:, k] = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    np.testing.assert_allclose(lu, a, rtol=1e-9)
    L = np.tril(lu, k=-1) + np.eye(N)
    U = np.triu(lu)
    # L U equals the matrix that elimination actually factored.
    assert np.isfinite(L).all() and np.isfinite(U).all()
    assert abs(np.diag(U)).min() > 0


def test_is_total_counts_conserved():
    app, res = dsm_result("is")
    params = dict(app.datasets["tiny"].params)
    buckets = res.arrays["shared_buckets"]
    total_keys = params["N"] * params["iters"]
    assert buckets.sum() == total_keys
    assert (buckets >= 0).all()
    # Histogram matches a direct count of the generated keys.
    keys = _keys_for(0, params["N"], params["Bmax"])
    expected = np.bincount(keys, minlength=params["Bmax"]) \
        * params["iters"]
    np.testing.assert_array_equal(buckets, expected)


def test_fft_roundtrip_conserves_energy():
    """Evolution damps: energy is non-increasing and near-conserved for
    the tiny damping constant."""
    app, res = dsm_result("fft3d")
    params = dict(app.datasets["tiny"].params)
    x = res.arrays["x"]
    ii = np.arange(params["n1"])[:, None, None]
    jj = np.arange(params["n2"])[None, :, None]
    kk = np.arange(params["n3"])[None, None, :]
    x0 = 0.01 * (((ii * 7 + jj * 3 + kk * 5) % 31) + 1)
    e0 = float(np.sum(np.abs(x0) ** 2))
    e1 = float(np.sum(np.abs(x) ** 2))
    assert e1 <= e0 * (1 + 1e-9)
    assert e1 >= e0 * 0.9


def test_jacobi_maximum_principle():
    """Interior values stay within the initial min/max (discrete maximum
    principle for the averaging stencil)."""
    app, res = dsm_result("jacobi")
    b = res.arrays["b"]
    params = dict(app.datasets["tiny"].params)
    M, N = params["M"], params["N"]
    ii = np.arange(M)[:, None]
    jj = np.arange(N)[None, :]
    b0 = 1.0 + 0.001 * ii + 0.002 * jj
    assert b.max() <= b0.max() + 1e-12
    assert b.min() >= 0.0


def test_shallow_fields_remain_bounded():
    app, res = dsm_result("shallow")
    for name in app.check_arrays:
        arr = res.arrays[name]
        assert np.isfinite(arr).all()
        assert np.abs(arr).max() < 1e4
