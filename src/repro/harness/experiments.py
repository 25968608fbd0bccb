"""Drivers that regenerate every table and figure of the paper.

All experiments run the applications at the scaled ``bench`` data sets by
default (the simulator executes real computation; paper-size runs are
memory- and time-prohibitive) with per-dataset compute-cost scaling that
restores the paper's compute-to-communication balance.  EXPERIMENTS.md
records how the shapes compare against the paper's numbers.

Every run is a cell of the one run matrix
(:func:`repro.harness.modes.run_matrix`), goes through
:func:`repro.harness.spec.run` and is cached under its cell key and
sizing, so regenerating several tables reuses the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.apps import all_apps
from repro.apps.base import AppSpec
from repro.errors import HpfError
from repro.harness.modes import OPT_LEVELS, applicable_levels, \
    run_matrix, sync_fetch_variant
from repro.harness.outcome import RunOutcome
from repro.harness.runner import run_seq
from repro.harness.spec import RunSpec, run

DEFAULT_NPROCS = 8
DEFAULT_DATASET = "bench"
DEFAULT_PAGE = 1024

#: Every artifact ``python -m repro <name>`` regenerates: the driver of
#: that name below, rendered by ``repro.harness.report.render_<name>``.
ARTIFACTS = ("table1", "table2", "figure5", "figure6", "figure7",
             "breakdown", "scaling", "sensitivity")


@dataclass
class AppRuns:
    """Everything measured for one (app, dataset, nprocs) combination."""

    app: AppSpec
    dataset: str
    nprocs: int
    seq: object = None
    dsm: Dict[str, object] = field(default_factory=dict)   # level -> DsmOutcome
    dsm_sync: Dict[str, object] = field(default_factory=dict)
    pvme: object = None
    xhpf: object = None            # None when XHPF refuses the program

    @property
    def seq_time(self) -> float:
        return self.seq.time

    def speedup(self, time_us: float) -> float:
        return self.seq_time / time_us

    @property
    def base(self):
        return self.dsm["base"]

    def best_level(self) -> str:
        """The paper's Opt-Tmk: best applicable optimization level."""
        candidates = {k: v for k, v in self.dsm.items() if k != "base"}
        return min(candidates, key=lambda k: candidates[k].time)

    @property
    def opt(self):
        return self.dsm[self.best_level()]


_CACHE: Dict[tuple, RunOutcome] = {}


def clear_cache() -> None:
    _CACHE.clear()


def cached_run(spec: RunSpec) -> RunOutcome:
    """Run ``spec`` (or fetch it from the cache) for its numbers alone:
    no final-state snapshot."""
    key = (spec.key, spec.dataset, spec.nprocs, spec.page_size)
    if key not in _CACHE:
        _CACHE[key] = run(spec, snapshot=False)
    return _CACHE[key]


def app_runs(app: AppSpec, dataset: str = DEFAULT_DATASET,
             nprocs: int = DEFAULT_NPROCS,
             page_size: int = DEFAULT_PAGE,
             include_sync_fetch: bool = False) -> AppRuns:
    """Run (or fetch from cache) the paper's mode matrix for one app."""
    sizing = dict(dataset=dataset, nprocs=nprocs, page_size=page_size)
    runs = AppRuns(app=app, dataset=dataset, nprocs=nprocs)
    for spec in run_matrix([app], protocols=[None], data_planes=[None],
                           **sizing):
        if spec.mode == "dsm":
            runs.dsm[spec.opt] = cached_run(spec)
            continue
        try:
            out = cached_run(spec)
        except HpfError:
            continue
        setattr(runs, "pvme" if spec.mode == "mp" else spec.mode, out)
    if include_sync_fetch:
        for level, opt in applicable_levels(app).items():
            if opt is not None:
                runs.dsm_sync[level] = cached_run(RunSpec(
                    app=app, opt=sync_fetch_variant(opt), **sizing))
    return runs


def apps_in_order() -> List[AppSpec]:
    """The six applications, in the paper's order."""
    return list(all_apps().values())


# ----------------------------------------------------------------------
# Table 1: data set sizes and uniprocessor times.
# ----------------------------------------------------------------------

def table1(dataset: str = DEFAULT_DATASET) -> List[dict]:
    """Paper-reported uniprocessor seconds vs. our simulated seconds.

    The paper's two data sets are calibration targets for the per-element
    cost model; the scaled ``dataset`` rows report what this repository
    actually runs.
    """
    rows = []
    for app in apps_in_order():
        for name, ds in app.datasets.items():
            if ds.paper_uniproc_secs is None and name != dataset:
                continue
            row = {
                "app": app.name,
                "dataset": name,
                "params": {k: v for k, v in ds.params.items()
                           if k not in ("cost_scale", "key_cost")},
                "paper_secs": ds.paper_uniproc_secs,
                "simulated_secs": None,
            }
            if name == dataset:
                row["simulated_secs"] = run_seq(
                    app.build_program(dict(ds.params), 1)).time / 1e6
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 2: % reduction in segv / messages / data (opt vs base).
# ----------------------------------------------------------------------

def table2(dataset: str = DEFAULT_DATASET, nprocs: int = DEFAULT_NPROCS,
           page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        runs = app_runs(app, dataset, nprocs, page_size)
        base, opt = runs.base, runs.opt

        def red(b, o):
            return 100.0 * (b - o) / b if b else 0.0

        rows.append({
            "app": app.name,
            "best_level": runs.best_level(),
            "segv_pct": red(base.run.stats.segv, opt.run.stats.segv),
            "msg_pct": red(base.run.messages, opt.run.messages),
            "data_pct": red(base.run.data_bytes, opt.run.data_bytes),
        })
    return rows


# ----------------------------------------------------------------------
# Figure 5: speedups of Tmk / Opt-Tmk / XHPF / PVMe at 8 processors.
# ----------------------------------------------------------------------

def figure5(dataset: str = DEFAULT_DATASET, nprocs: int = DEFAULT_NPROCS,
            page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        runs = app_runs(app, dataset, nprocs, page_size)
        rows.append({
            "app": app.name,
            "Tmk": runs.speedup(runs.base.time),
            "Opt-Tmk": runs.speedup(runs.opt.time),
            "XHPF": (runs.speedup(runs.xhpf.time)
                     if runs.xhpf is not None else None),
            "PVMe": runs.speedup(runs.pvme.time),
        })
    return rows


# ----------------------------------------------------------------------
# Figure 6: per-app speedups under each optimization level.
# ----------------------------------------------------------------------

def figure6(dataset: str = DEFAULT_DATASET, nprocs: int = DEFAULT_NPROCS,
            page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        runs = app_runs(app, dataset, nprocs, page_size)
        row = {"app": app.name}
        for level in OPT_LEVELS:
            res = runs.dsm.get(level)
            row[level] = runs.speedup(res.time) if res else None
        row["XHPF"] = (runs.speedup(runs.xhpf.time)
                       if runs.xhpf is not None else None)
        row["PVMe"] = runs.speedup(runs.pvme.time)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Extra artifact: execution-time breakdown (Section 6's discussion of
# where DSM time goes, quantified).
# ----------------------------------------------------------------------

def breakdown(dataset: str = DEFAULT_DATASET, nprocs: int = DEFAULT_NPROCS,
              page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        runs = app_runs(app, dataset, nprocs, page_size)
        for label, res in (("base", runs.base),
                           (runs.best_level(), runs.opt)):
            frac = res.run.stats.breakdown(res.time * nprocs)
            row = {"app": app.name, "mode": label,
                   "speedup": runs.speedup(res.time)}
            row.update({k: 100.0 * v for k, v in frac.items()})
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Extra artifact: speedup scaling with processor count (the paper
# reports 8 processors; Section 6.4 expects Push to matter more at
# larger counts — we expose the trend).
# ----------------------------------------------------------------------

def scaling(dataset: str = DEFAULT_DATASET,
            procs: tuple = (2, 4, 8),
            page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        row = {"app": app.name}
        for n in procs:
            runs = app_runs(app, dataset, n, page_size)
            row[f"Tmk@{n}"] = runs.speedup(runs.base.time)
            row[f"Opt@{n}"] = runs.speedup(runs.opt.time)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Extra artifact: platform sensitivity (Section 1: on other platforms
# "the relative values of the improvements ... may differ, but the
# methods remain applicable").
# ----------------------------------------------------------------------

def sensitivity(appname: str = "jacobi", dataset: str = DEFAULT_DATASET,
                nprocs: int = DEFAULT_NPROCS,
                page_size: int = DEFAULT_PAGE,
                factors: tuple = (0.25, 1.0, 4.0)) -> List[dict]:
    """Sweep the platform's communication cost by ``factors``."""
    from dataclasses import replace as dc_replace
    from repro.machine.config import MachineConfig

    app = all_apps()[appname]
    rows = []
    base_cfg = MachineConfig()
    seq_time = run_seq(app.program(dataset, 1)).time
    for f in factors:
        cfg = dc_replace(
            base_cfg,
            send_overhead=base_cfg.send_overhead * f,
            recv_overhead=base_cfg.recv_overhead * f,
            interrupt_cost=base_cfg.interrupt_cost * f,
            wire_latency=base_cfg.wire_latency * f,
            bandwidth=base_cfg.bandwidth / f,
        )
        spec = RunSpec(app=app, dataset=dataset, nprocs=nprocs,
                       page_size=page_size, config=cfg, snapshot=False)
        base = run(spec)
        best = min((run(spec, opt=opt)
                    for opt in applicable_levels(app).values()
                    if opt is not None), key=lambda res: res.time)
        pvme = run(spec, mode="mp")
        rows.append({
            "comm_cost_x": f,
            "Tmk": seq_time / base.time,
            "Opt-Tmk": seq_time / best.time,
            "PVMe": seq_time / pvme.time,
        })
    return rows


# ----------------------------------------------------------------------
# Figure 7: synchronous vs asynchronous data fetching.
# ----------------------------------------------------------------------

def figure7(dataset: str = DEFAULT_DATASET, nprocs: int = DEFAULT_NPROCS,
            page_size: int = DEFAULT_PAGE) -> List[dict]:
    rows = []
    for app in apps_in_order():
        runs = app_runs(app, dataset, nprocs, page_size,
                        include_sync_fetch=True)
        level = runs.best_level()
        sync = runs.dsm_sync.get(level)
        rows.append({
            "app": app.name,
            "Tmk": runs.speedup(runs.base.time),
            "Sync": runs.speedup(sync.time) if sync else None,
            "Async": runs.speedup(runs.dsm[level].time),
        })
    return rows
