"""Run modes, Figure 6's optimization levels, and the run matrix."""

from __future__ import annotations

import enum
from itertools import product
from typing import Dict, Iterator, Optional, Sequence

from repro.capability import MODES, PLANES, Cell, cell_of, legal_cells
from repro.compiler.transform import OptConfig
from repro.harness.spec import RunSpec


class Mode(enum.Enum):
    """The four systems compared in Figure 5."""

    TMK = "Tmk"              # base TreadMarks
    OPT_TMK = "Opt-Tmk"      # best compiler-optimized TreadMarks
    XHPF = "XHPF"            # compiler-generated message passing
    PVME = "PVMe"            # hand-coded message passing


#: Figure 6's cumulative optimization levels, in bar order.
#: ``None`` means the untransformed program on the base run-time.
OPT_LEVELS: Dict[str, Optional[OptConfig]] = {
    "base": None,
    "aggr": OptConfig(aggregation=True, consistency_elimination=False,
                      sync_data_merge=False, push=False, name="aggr"),
    "aggr+cons": OptConfig(aggregation=True, consistency_elimination=True,
                           sync_data_merge=False, push=False,
                           name="aggr+cons"),
    "merge": OptConfig(aggregation=True, consistency_elimination=True,
                       sync_data_merge=True, push=False, name="merge"),
    "push": OptConfig(aggregation=True, consistency_elimination=True,
                      sync_data_merge=False, push=True, name="push"),
}


def applicable_levels(app) -> Dict[str, Optional[OptConfig]]:
    """The levels the paper reports for this app (Figure 6's n/a bars)."""
    out: Dict[str, Optional[OptConfig]] = {}
    for name, opt in OPT_LEVELS.items():
        if name == "merge" and not app.supports_sync_merge:
            continue
        if name == "push" and not app.supports_push:
            continue
        out[name] = opt
    return out


#: The sizing every gate, sweep and bench table runs at unless told
#: otherwise: tiny datasets, 4 processors, and pages small enough that
#: the tiny arrays still span several of them and the protocol actually
#: works.
SIZING = {"dataset": "tiny", "nprocs": 4, "page_size": 1024}


def run_matrix(apps: Optional[Sequence] = None,
               opts: Optional[Sequence[str]] = None,
               protocols: Optional[Sequence[str]] = None,
               data_planes: Optional[Sequence[str]] = None,
               modes: Sequence[str] = MODES,
               **sizing) -> Iterator[RunSpec]:
    """Every unperturbed run cell, once: the paper's evaluation matrix
    (Table 2, Figures 5-7) times the backends and data planes added
    since.

    The unperturbed cells of :func:`repro.capability.legal_cells` x
    apps x, on the DSM, the opt levels the paper reports for the app
    (:func:`applicable_levels`); an app XHPF refuses has no ``xhpf``
    cell.  Each is a :class:`RunSpec` whose ``key`` names it in
    ``benchmarks/baselines/protocol.json``.  Every argument is a filter
    and an order: apps (names or specs; default all, in the paper's
    order) outermost, then ``modes``, ``opts`` (default
    :data:`OPT_LEVELS` order), ``protocols`` (default registration
    order) and ``data_planes``; ``None`` names the default backend or
    plane, as in a ``RunSpec``, and unknown names raise ``ReproError``.
    ``sizing`` overrides :data:`SIZING`.
    """
    from repro.apps import all_apps
    from repro.tm.coherence import protocols as registered

    registry = all_apps()
    legal = {c for c in legal_cells() if not c.perturbations}
    sizing = {**SIZING, **sizing}
    for app in registry if apps is None else apps:
        spec = registry[app] if isinstance(app, str) else app
        for mode in modes:
            if mode == "xhpf" and not spec.xhpf_ok:
                continue
            levels = [None] if mode != "dsm" else [
                o for o in opts or OPT_LEVELS
                if o in applicable_levels(spec)]
            for opt, proto, plane in product(
                    levels, protocols or registered(),
                    data_planes or PLANES):
                cell = cell_of(mode, proto, plane)
                if cell in legal:
                    # Defaults stay None, as a hand-written spec leaves
                    # them: the baseline's ``config`` block records
                    # only what was asked for.
                    yield RunSpec(
                        app=app, mode=mode, opt=opt,
                        protocol=None if cell.protocol == Cell.protocol
                        else cell.protocol,
                        data_plane=None
                        if cell.data_plane == Cell.data_plane
                        else cell.data_plane, **sizing)


def sync_fetch_variant(opt: OptConfig) -> OptConfig:
    """The synchronous-fetch twin of a level (Figure 7)."""
    from dataclasses import replace
    return replace(opt, asynchronous=False,
                   name=opt.name + "+syncfetch")
