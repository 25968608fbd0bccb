"""Analytic message-count checks from the paper's Section 2.

For Jacobi with n processors and m pages per boundary column the paper
derives, per iteration:

* base TreadMarks: 2(n-1) messages at each barrier plus 4m(n-1) diff
  request/response pairs for the invalidated boundary pages;
* message passing: just 2(n-1) boundary-exchange messages.
"""

import pytest

from repro.harness import run
from repro.harness.modes import OPT_LEVELS


def jacobi_params(M, N, iters):
    return {"M": M, "N": N, "iters": iters}


def run_jacobi_dsm(nprocs, M, N, iters, opt=None, page_size=256):
    return run("jacobi", params=jacobi_params(M, N, iters), nprocs=nprocs,
               opt=opt, page_size=page_size, snapshot=False)


def test_base_jacobi_message_formula():
    """Per-iteration messages match the paper's 2*2(n-1) + 4m(n-1)."""
    n = 4
    M, N = 64, 64          # column = 512 bytes = m=2 pages of 256
    m = (M * 8) // 256
    it1 = run_jacobi_dsm(n, M, N, 1)
    it3 = run_jacobi_dsm(n, M, N, 3)
    per_iter = (it3.messages - it1.messages) / 2
    expected = 2 * 2 * (n - 1) + 4 * m * (n - 1)
    assert per_iter == pytest.approx(expected, rel=0.05)


def test_mp_jacobi_message_formula():
    """Hand-coded Jacobi sends exactly 2(n-1) messages per iteration."""
    n = 4
    r1 = run("jacobi", mode="mp", params=jacobi_params(64, 64, 1), nprocs=n)
    r3 = run("jacobi", mode="mp", params=jacobi_params(64, 64, 3), nprocs=n)
    per_iter = (r3.messages - r1.messages) / 2
    assert per_iter == 2 * (n - 1)


def test_push_jacobi_replaces_barrier2():
    """With Push, barrier(2) disappears: per-iteration messages become
    2(n-1) push messages + 2(n-1) barrier(1) messages."""
    n = 4
    it1 = run_jacobi_dsm(n, 64, 64, 1, opt=OPT_LEVELS["push"])
    it3 = run_jacobi_dsm(n, 64, 64, 3, opt=OPT_LEVELS["push"])
    per_iter = (it3.messages - it1.messages) / 2
    assert per_iter == pytest.approx(2 * (n - 1) + 2 * (n - 1), rel=0.05)


def test_aggregation_halves_boundary_fetch_messages():
    """One Validate per iteration replaces per-page fault traffic: the
    4m(n-1) term collapses to 4(n-1) (one request/response per
    neighbour pair) regardless of m."""
    n = 4
    M = 128                 # m = 4 pages per column at 256-byte pages
    base1 = run_jacobi_dsm(n, M, 64, 1)
    base3 = run_jacobi_dsm(n, M, 64, 3)
    aggr1 = run_jacobi_dsm(n, M, 64, 1, opt=OPT_LEVELS["aggr"])
    aggr3 = run_jacobi_dsm(n, M, 64, 3, opt=OPT_LEVELS["aggr"])
    base_per_iter = (base3.messages - base1.messages) / 2
    aggr_per_iter = (aggr3.messages - aggr1.messages) / 2
    m = (M * 8) // 256
    assert base_per_iter == pytest.approx(
        2 * 2 * (n - 1) + 4 * m * (n - 1), rel=0.05)
    assert aggr_per_iter == pytest.approx(
        2 * 2 * (n - 1) + 4 * (n - 1), rel=0.05)


def test_barrier_messages_scale_with_processors():
    for n in (2, 4, 8):
        res = run_jacobi_dsm(n, 64, 64, 1, page_size=256)
        # Every barrier contributes 2(n-1): arrival + departure.
        barriers = res.net.by_kind["barrier_arrive"]
        departs = res.net.by_kind["barrier_depart"]
        assert barriers == departs
        assert barriers % (n - 1) == 0
