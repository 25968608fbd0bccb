#!/usr/bin/env python
"""Quickstart: run Jacobi on the DSM, base vs compiler-optimized.

This reproduces the paper's motivating example (Section 2): the same
explicitly parallel shared-memory Jacobi program, executed

1. on base TreadMarks (pure run-time DSM): every boundary page is
   fetched through a page fault, one diff request/response pair each;
2. after the compiler's source-to-source transformation: one aggregated
   ``Validate`` per iteration, ``WRITE_ALL`` consistency elimination for
   the copy phase, and ``Push`` replacing Barrier(2) with point-to-point
   neighbour exchanges.

Usage:  python examples/quickstart.py [nprocs]
"""

import sys

import numpy as np

from repro.apps import get_app
from repro.compiler import OptConfig
from repro.harness import RunSpec, run


def main() -> None:
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    app = get_app("jacobi")
    dataset = "bench"
    params = dict(app.datasets[dataset].params)
    print(f"Jacobi {params['M']}x{params['N']}, {params['iters']} "
          f"iterations, {nprocs} processors\n")

    seq = run(RunSpec(app=app, mode="seq", dataset=dataset))
    print(f"uniprocessor time: {seq.time / 1e6:.2f} simulated seconds")

    spec = RunSpec(app=app, dataset=dataset, nprocs=nprocs, page_size=1024)
    base = run(spec)
    opt = run(spec, opt=OptConfig(push=True, name="full"))

    ref = app.reference(params)
    for name, res in (("base TreadMarks", base), ("optimized", opt)):
        assert np.allclose(res.arrays["b"], ref["b"]), f"{name} diverged!"

    print(f"\n{'':24s}{'base Tmk':>12s}{'compiler-opt':>14s}")
    rows = [
        ("time (sim. seconds)", base.time / 1e6, opt.time / 1e6),
        ("speedup", seq.time / base.time, seq.time / opt.time),
        ("messages", base.messages, opt.messages),
        ("data (KB)", base.data_bytes / 1024, opt.data_bytes / 1024),
        ("page faults", base.stats.segv, opt.stats.segv),
        ("twins", base.stats.twins_created, opt.stats.twins_created),
        ("diffs created", base.stats.diffs_created,
         opt.stats.diffs_created),
    ]
    for label, b, o in rows:
        if isinstance(b, float):
            print(f"{label:24s}{b:12.2f}{o:14.2f}")
        else:
            print(f"{label:24s}{b:12d}{o:14d}")
    print("\nBoth versions produced the numpy-reference answer.")


if __name__ == "__main__":
    main()
