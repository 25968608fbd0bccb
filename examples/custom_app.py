#!/usr/bin/env python
"""Write your own explicitly parallel DSM program: row-banded Jacobi.

Shows the full pipeline on a program that is NOT one of the paper's six.
The paper's Jacobi partitions by *columns* — contiguous in the Fortran
layout, so sections are single address ranges.  This example partitions
by *rows*: each band is strided across every column, which exercises the
compiler's strided regular sections and the run-time's scattered address
ranges (the effect the paper observes for MGS).

Pipeline:

1. build the IR program with the ``repro.lang.build`` helpers;
2. run it sequentially for a reference;
3. run it on base TreadMarks and on the compiler-optimized DSM;
4. compare results and communication statistics.

Usage:  python examples/custom_app.py [nprocs]
"""

import sys

import numpy as np

from repro.compiler import OptConfig
from repro.harness import run
from repro.lang import build as B
from repro.lang.nodes import ArrayDecl, Program

M, N, ITERS = 64, 64, 4
STENCIL_COST = 0.12
COPY_COST = 0.05


def build_program(nprocs: int) -> Program:
    i, j, k = B.syms("i j k")
    p = B.sym("p")
    g = B.array_ref("g")      # shared grid
    s = B.array_ref("s")      # private scratch
    begin, end, ilo, ihi = B.syms("begin end ilo ihi")

    body = [
        B.local("h", M // nprocs, partition=True),
        B.local("begin", p * B.sym("h"), partition=True),
        B.local("end", (p + 1) * B.sym("h") - 1, partition=True),
        B.local("ilo", B.emax(begin, 1), partition=True),
        B.local("ihi", B.emin(end, M - 2), partition=True),
        # Initialize my rows (a strided section of every column).
        B.loop(i, begin, end, [
            B.loop(j, 0, N - 1, [
                B.assign(g(i, j), 0.01 * i + 0.02 * j, cost=0.02),
            ]),
        ]),
        B.barrier("init"),
        B.loop(k, 1, ITERS, [
            B.loop(i, ilo, ihi, [
                B.loop(j, 1, N - 2, [
                    B.assign(s(i, j),
                             0.25 * (g(i - 1, j) + g(i + 1, j)
                                     + g(i, j - 1) + g(i, j + 1)),
                             cost=STENCIL_COST),
                ]),
            ]),
            B.barrier("compute"),
            B.loop(i, ilo, ihi, [
                B.loop(j, 1, N - 2, [
                    B.assign(g(i, j), s(i, j), cost=COPY_COST),
                ]),
            ]),
            B.barrier("copy"),
        ]),
    ]
    return Program("rowjacobi",
                   [ArrayDecl("g", (M, N), shared=True),
                    ArrayDecl("s", (M, N), shared=False)],
                   body)


def reference() -> np.ndarray:
    ii = np.arange(M, dtype=float)[:, None]
    jj = np.arange(N, dtype=float)[None, :]
    g = np.asfortranarray(0.01 * ii + 0.02 * jj)
    for _ in range(ITERS):
        s = 0.25 * (g[0:M - 2, 1:N - 1] + g[2:M, 1:N - 1]
                    + g[1:M - 1, 0:N - 2] + g[1:M - 1, 2:N])
        g[1:M - 1, 1:N - 1] = s
    return g


def main() -> None:
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    ref = reference()

    seq = run(build_program(1), mode="seq")
    assert np.allclose(seq.arrays["g"], ref), "sequential run diverged"
    print(f"sequential: {seq.time / 1e6:.3f} simulated seconds")

    base = run(build_program(nprocs), nprocs=nprocs, page_size=256)
    opt = run(build_program(nprocs), nprocs=nprocs,
              opt=OptConfig(push=True, name="full"), page_size=256)
    for name, res in (("base", base), ("optimized", opt)):
        ok = np.allclose(res.arrays["g"], ref)
        print(f"{name:10s} t={res.time / 1e6:.3f}s "
              f"msgs={res.messages:5d} segv={res.stats.segv:4d} "
              f"data={res.data_bytes:7d}B correct={ok}")
        assert ok
    print("\nRow bands are strided sections: compare the message and "
          "data counts\nwith examples/quickstart.py's contiguous column "
          "bands.")


if __name__ == "__main__":
    main()
