"""The paper's evaluation as one table: every artifact, and its claims.

``ARTIFACTS[name]`` is one table or figure: the driver below that
computes its rows, how they print, and the paper's claims about them.
``python -m repro <name>`` prints the table, then one line pair per
claim; EXPERIMENTS.md holds that output at the ``bench`` data sets (with
per-dataset compute-cost scaling restoring the paper's
compute-to-communication balance) on 8 processors, and
``benchmarks/test_experiments_doc.py`` checks and rewrites it.  Every
application run is a cell of :func:`repro.harness.modes.run_matrix`,
goes through :func:`repro.harness.spec.run` and is cached under its cell
key and sizing, so several tables reuse the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.apps import all_apps
from repro.apps.base import AppSpec
from repro.errors import HpfError
from repro.harness.modes import OPT_LEVELS, applicable_levels, \
    run_matrix, sync_fetch_variant
from repro.harness.outcome import RunOutcome
from repro.harness.report import fmt, render_table
from repro.harness.runner import run_seq
from repro.harness.spec import RunSpec, run
from repro.machine.config import MachineConfig
from repro.memory import SharedLayout
from repro.net import Network
from repro.sim import Engine
from repro.tm.system import TmSystem

DEFAULT_NPROCS = 8
DEFAULT_DATASET = "bench"
DEFAULT_PAGE = 1024
SCALING_PROCS = (2, 4, 8)
INF = float("inf")


@dataclass
class AppRuns:
    """Everything measured for one app at one sizing."""

    app: AppSpec
    seq: object = None
    dsm: Dict[str, object] = field(default_factory=dict)   # level -> RunOutcome
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
    runs = AppRuns(app=app)
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


# Claims, and the two formulas every claim about times and counts is
# stated in.  A speedup bar's run takes the sequential time over the
# speedup, so time ratios are inverse speedup ratios.

def slower(t: float, t_ref: float) -> float:
    """How much longer, in %, time ``t`` is than ``t_ref``: the paper's
    "X % slower than" and "within X % of"."""
    return 100.0 * (t / t_ref - 1.0)


def reduction(before: float, after: float) -> float:
    """How much smaller, in %, ``after`` is than ``before``: Table 2's
    columns and the paper's execution-time "improvement"."""
    return 100.0 * (before - after) / before if before else 0.0


@dataclass(frozen=True)
class Claim:
    """One quantitative statement of the paper, as a predicate over an
    artifact's rows.

    ``ours`` maps the rows to ``{label: value}``, one value per program
    (or setting) the statement covers; the claim holds when every value
    lies in the closed ``band``, the paper's value or range.  A claim
    that misses cites, in ``deviation``, the EXPERIMENTS.md Known
    deviation that explains it, and in ``explains`` how far: per label,
    the furthest value beyond the band the deviation accounts for.  A
    miss by a label it does not name, or past that value, has no
    verdict.
    """

    id: str
    says: str
    band: Tuple[float, float]
    ours: Callable[[List[dict]], Dict[str, float]]
    unit: str = " %"
    deviation: Optional[int] = None
    explains: Mapping[str, float] = field(default_factory=dict)

    def misses(self, rows) -> Dict[str, float]:
        lo, hi = self.band
        return {k: v for k, v in self.ours(rows).items()
                if not lo <= v <= hi}

    def verdict(self, rows) -> Optional[str]:
        """``holds``, ``deviates (k)``, or None for an unexplained miss."""
        (lo, hi), far = self.band, self.explains
        missed = self.misses(rows).items()
        if not missed:
            return "holds"
        if all(k in far and min(lo, far[k]) <= v <= max(hi, far[k])
               for k, v in missed):
            return f"deviates ({self.deviation})"
        return None

    def render(self, rows) -> str:
        def q(v, label=""):
            return f"{fmt(v)}{self.unit}" + (f" ({label})" if label else "")

        lo, hi = self.band
        paper = (q(lo) if lo == hi else f"<= {q(hi)}" if lo == -INF
                 else f">= {q(lo)}" if hi == INF else f"{q(lo)} to {q(hi)}")
        ranked = sorted(self.ours(rows).items(), key=lambda kv: kv[1])
        ours = " to ".join(dict.fromkeys(q(v, k) for k, v in
                                         (ranked[0], ranked[-1])))
        missed = [label for label in self.misses(rows) if label]
        line = f"paper {paper}, ours {ours}" + (
            f"; outside: {', '.join(missed)}" if missed else "") + (
            "; explained to: " + ", ".join(
                f"{k} {q(v)}".strip() for k, v in self.explains.items())
            if self.explains else "")
        return (f"{self.verdict(rows) or 'NO VERDICT':<12}  {self.id}: "
                f"{self.says}\n{'':14}{line}")


@dataclass(frozen=True)
class Artifact:
    """One table of the evaluation: the driver computing its rows, how
    they print, and the claims they are checked against."""

    driver: Callable[..., List[dict]]
    title: str
    #: The table's headers, which are also the rows' keys.
    columns: Tuple[str, ...]
    claims: Tuple[Claim, ...]
    note: Optional[str] = None
    #: The sizing knobs (``dataset``, ``nprocs``) the driver takes.
    sizing: Tuple[str, ...] = ("dataset", "nprocs")

    def rows(self, dataset: str = DEFAULT_DATASET,
             nprocs: int = DEFAULT_NPROCS) -> List[dict]:
        given = {"dataset": dataset, "nprocs": nprocs}
        return self.driver(**{k: given[k] for k in self.sizing})

    def render(self, rows: List[dict]) -> str:
        table = render_table(self.title, list(self.columns),
                             [[r.get(c) for c in self.columns]
                              for r in rows], note=self.note)
        return "\n".join([table, "", "Claims (paper vs ours)"]
                         + [c.render(rows) for c in self.claims])


#: Every artifact ``python -m repro <name>`` regenerates, in the
#: paper's order.
ARTIFACTS: Dict[str, Artifact] = {}


def artifact(title: str, columns, *claims: Claim, **kw):
    """Enter the decorated driver in :data:`ARTIFACTS` under its name."""
    def enter(driver):
        ARTIFACTS[driver.__name__] = Artifact(driver, title, tuple(columns),
                                              claims, **kw)
        return driver
    return enter


def _each(f, only=None, key="app"):
    """``ours``: ``f`` of the rows (whose ``key`` is in ``only``)."""
    return lambda rows: {str(r[key]): f(r) for r in rows
                         if only is None or r[key] in only}


def _count(f, least):
    """``ours``: how many programs ``f`` puts at ``least`` or above."""
    return lambda rows: {"": sum(f(r) >= least for r in rows)}


def _col(col, *only):
    """``ours``: column ``col`` of every program, or of those in ``only``."""
    return _each(lambda r: r[col], only or None)


def _slower(bar, ref):
    """% by which speedup bar ``bar``'s run is slower than ``ref``'s."""
    return lambda r: slower(1.0 / r[bar], 1.0 / r[ref])


def _improves(bar, ref):
    """% by which ``bar``'s run improves on ``ref``'s execution time."""
    return lambda r: reduction(1.0 / r[ref], 1.0 / r[bar])


def _best_level(level):
    """% by which ``level`` is slower than the best other DSM level."""
    return lambda r: slower(1.0 / r[level], min(
        1.0 / r[other] for other in OPT_LEVELS
        if other != level and r[other] is not None))


def _opt_minus_base(col):
    """Per program: the optimized row's ``col`` minus the base row's."""
    def ours(rows):
        base = {r["app"]: r[col] for r in rows if r["mode"] == "base"}
        return {r["app"]: r[col] - base[r["app"]]
                for r in rows if r["mode"] != "base"}
    return ours


def _base(col, which):
    """``ours``: ``col`` of the base rows of the programs ``which`` takes."""
    return lambda rows: {r["app"]: r[col] for r in rows
                         if r["mode"] == "base" and which(r["app"])}


def _paper_large_over_small(rows):
    paper = {(r["app"], r["dataset"]): r["paper"] for r in rows}
    return {app: paper[app, "large"] / paper[app, "small"]
            for app, ds in paper if ds == "large"}


#: Figure 6's n/a bars in the paper: no merge/Push for Shallow
#: (procedure boundaries), no Push for IS/Gauss/MGS, no XHPF for IS.
PAPER_NA = {("shallow", "merge"), ("shallow", "push"), ("is", "push"),
            ("gauss", "push"), ("mgs", "push"), ("is", "XHPF")}

#: Where ``scaling`` reads the trend: its fewest and most processors.
_LO, _HI = SCALING_PROCS[0], SCALING_PROCS[-1]


def roundtrip_us() -> float:
    """Minimum request/reply roundtrip: smallest message, one interrupt
    at the responder."""
    engine = Engine()
    cfg = MachineConfig(nprocs=2)
    net = Network(engine, cfg, 2)
    result = {}

    def requester(proc):
        ep = net.endpoint(0)
        t0 = engine.now
        ep.send(1, "request", size=0)
        ep.recv(kind="reply")
        result["rtt"] = engine.now - t0
        ep.send(1, "stop")

    def responder(proc):
        ep = net.endpoint(1)

        def handle(msg):
            ep.charge(cfg.request_service)
            ep.send(msg.src, "reply", size=0)

        ep.on("request", handle)
        ep.recv(kind="stop")

    for i, main in enumerate((requester, responder)):
        net.attach(engine.add_process(f"p{i}", main))
    engine.run()
    return result["rtt"]


def _tm_returns(nprocs: int, main) -> list:
    layout = SharedLayout()
    layout.add_array("x", (8,))
    return TmSystem(nprocs=nprocs, layout=layout).run(main).returns


def lock_acquire_us() -> float:
    """P0 acquiring a free lock whose manager (P1) is remote."""
    def main(node):
        if node.pid == 0:
            node.lock_acquire(1)
            t = node.proc.engine.now
            node.lock_release(1)
            return t

    return _tm_returns(2, main)[0]


def barrier_us() -> float:
    """One 8-processor barrier, as the last processor to leave sees it."""
    def main(node):
        node.barrier()
        t = node.proc.engine.now
        # Keep the implicit exit barrier's arrivals from interleaving
        # with (and thus delaying) the measured barrier's departures.
        node.proc.advance(10000.0)
        return t

    return _tm_returns(8, main)[7]


@artifact("Section 5 microbenchmarks (the cost model's calibration)",
          ("quantity", "paper us", "simulated us"), Claim(
              "micro.calibration", "each comes out at the paper's value",
              (-1, 1), _each(lambda r: slower(r["simulated us"],
                                              r["paper us"]), key="quantity")),
          sizing=())
def micro() -> List[dict]:
    cfg = MachineConfig()
    return [{"quantity": q, "paper us": p, "simulated us": t} for q, p, t in (
        ("min roundtrip, one interrupt", 365, roundtrip_us()),
        ("free remote lock acquire", 427, lock_acquire_us()),
        ("8-processor barrier", 893, barrier_us()),
        ("mprotect at page 0", 18, cfg.protect_cost(0)),
        ("mprotect at page 2000", 800, cfg.protect_cost(2000)))]


@artifact("Table 1: data sets and uniprocessor times (seconds)",
          ("app", "dataset", "params", "paper", "simulated"),
          Claim("table1.large_over_small", "each program has the paper's two "
                "sets, the large one slower", (1, INF),
                _paper_large_over_small, "x"),
          Claim("table1.simulated", "the run set has a simulated time",
                (0, INF), lambda rows: {r["app"]: r["simulated"] for r in rows
                                        if r["simulated"] is not None}, " s"),
          note=("The paper's sizes are calibration targets for the cost "
                "model; 'simulated' rows are the scaled sets this harness "
                "actually runs."), sizing=("dataset",))
def table1(dataset: str = DEFAULT_DATASET) -> List[dict]:
    """Paper-reported uniprocessor seconds vs. our simulated seconds."""
    rows = []
    for app in all_apps().values():
        for name, ds in app.datasets.items():
            if ds.paper_uniproc_secs is None and name != dataset:
                continue
            row = {"app": app.name, "dataset": name, "params": " ".join(
                f"{k}={v}" for k, v in ds.params.items()
                if k not in ("cost_scale", "key_cost")),
                "paper": ds.paper_uniproc_secs, "simulated": None}
            if name == dataset:
                row["simulated"] = run_seq(
                    app.build_program(dict(ds.params), 1)).time / 1e6
            rows.append(row)
    return rows


@artifact("Table 2: % reduction, compiler-optimized vs base TreadMarks",
          ("app", "best level", "% segv", "% msg", "% data"),
          Claim("table2.segv", "almost all page faults go (the paper's "
                "lowest is Shallow's)", (85, 100), _col("% segv"),
                deviation=7, explains={"is": 60}),
          Claim("table2.msg", "every program sends fewer messages",
                (0, 100), _col("% msg")),
          Claim("table2.data_jacobi", "Jacobi moves MORE data, whole pages "
                "for diffs (paper -2312 / -614 %)", (-INF, 0),
                _col("% data", "jacobi")),
          Claim("table2.data_is", "IS moves much less data, its diff "
                "accumulation gone (paper 58.9 / 66.3 %)", (58.9, 100),
                _col("% data", "is")),
          Claim("table2.data_fft3d", "3D-FFT moves less data, its false "
                "sharing gone (paper 0.8 / 46.3 %)", (0, 100),
                _col("% data", "fft3d")),
          Claim("table2.data_gauss_mgs", "Gauss and MGS move less data "
                "(paper 0.1 / 0.4 and 0.2 / 40.5 %)", (0, 100),
                _col("% data", "gauss", "mgs"), deviation=2,
                explains={"gauss": -250, "mgs": -150}),
          note=("Negative %data means the optimized version moves MORE "
                "bytes (whole pages instead of small diffs), as the paper "
                "reports for Jacobi."))
def table2(dataset: str = DEFAULT_DATASET,
           nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    rows = []
    for app in all_apps().values():
        runs = app_runs(app, dataset, nprocs)
        base, opt = runs.base, runs.opt
        rows.append({
            "app": app.name,
            "best level": runs.best_level(),
            "% segv": reduction(base.stats.segv, opt.stats.segv),
            "% msg": reduction(base.messages, opt.messages),
            "% data": reduction(base.data_bytes, opt.data_bytes),
        })
    return rows


@artifact("Figure 5: speedups at 8 processors",
          ("app", "Tmk", "Opt-Tmk", "XHPF", "PVMe"),
          Claim("figure5.improvement", "compiler support improves on base "
                "TreadMarks' time", (4, 59),
                _each(_improves("Opt-Tmk", "Tmk")), deviation=5,
                explains={"fft3d": 85}),
          Claim("figure5.large_gains", "IS and 3D-FFT gain the most",
                (48, 59), _each(_improves("Opt-Tmk", "Tmk"),
                                ("is", "fft3d")), deviation=5,
                explains={"fft3d": 85}),
          Claim("figure5.base_gap", "base TreadMarks is slower than PVMe",
                (5, 212), _each(_slower("Tmk", "PVMe")), deviation=5,
                explains={"fft3d": 400}),
          Claim("figure5.opt_gap", "with compiler support, slower than PVMe",
                (0, 29), _each(_slower("Opt-Tmk", "PVMe")), deviation=6,
                explains={"shallow": 40, "gauss": 75}),
          Claim("figure5.xhpf_gap", "slower than XHPF on the five programs "
                "it compiles", (-INF, 9), lambda rows: _each(_slower(
                    "Opt-Tmk", "XHPF"))([r for r in rows if r["XHPF"]]),
                deviation=6, explains={"shallow": 40, "gauss": 65, "mgs": 30}),
          Claim("figure5.no_is_xhpf", "XHPF cannot parallelize IS", (0, 0),
                _each(lambda r: int(r["XHPF"] is not None), ("is",)),
                " bars"),
          Claim("figure5.pvme_fastest", "PVMe is every program's fastest "
                "version", (0, INF), _each(lambda r: min(
                    _slower(bar, "PVMe")(r) for bar in
                    ("Tmk", "Opt-Tmk", "XHPF") if r[bar] is not None))),
          note="The XHPF entry for IS is n/a: XHPF cannot parallelize it.")
def figure5(dataset: str = DEFAULT_DATASET,
            nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    """Figure 6's base bar, its best optimization level, XHPF, PVMe."""
    return [{"app": r["app"], "Tmk": r["base"],
             "Opt-Tmk": max(r[level] for level in OPT_LEVELS
                            if level != "base" and r[level] is not None),
             "XHPF": r["XHPF"], "PVMe": r["PVMe"]}
            for r in figure6(dataset, nprocs)]


@artifact("Figure 6: speedups at 8 processors, by optimization level",
          ("app", *OPT_LEVELS, "XHPF", "PVMe"),
          Claim("figure6.na_bars", "n/a bars exactly where the paper has "
                "none", (0, 0), lambda rows: {"": sum(
                    (r[c] is None) != ((r["app"], c) in PAPER_NA)
                    for r in rows for c in r if c != "app")}, " bars off"),
          Claim("figure6.aggr_helps", "aggregation improves on base in "
                "every program", (0, INF), _each(_improves("aggr", "base"))),
          Claim("figure6.cons_mild", "consistency elimination after "
                "aggregation is at worst a mild trade-off", (-INF, 10),
                _each(_slower("aggr+cons", "aggr"))),
          Claim("figure6.merge_best", "merge is the best level for Gauss "
                "and MGS", (-INF, 0),
                _each(_best_level("merge"), ("gauss", "mgs"))),
          Claim("figure6.push_best", "Push is the best level for Jacobi "
                "and 3D-FFT", (-INF, 0),
                _each(_best_level("push"), ("jacobi", "fft3d"))),
          Claim("figure6.merge_hurts", "merge hurts 3D-FFT and IS", (0, INF),
                _each(_slower("merge", "aggr+cons"), ("fft3d", "is"))),
          note=("n/a bars match the paper: no merge/Push for Shallow "
                "(procedure boundaries), no Push for IS/Gauss/MGS, no XHPF "
                "for IS."))
def figure6(dataset: str = DEFAULT_DATASET,
            nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    rows = []
    for app in all_apps().values():
        runs = app_runs(app, dataset, nprocs)
        row = {"app": app.name}
        for level in OPT_LEVELS:
            res = runs.dsm.get(level)
            row[level] = runs.speedup(res.time) if res else None
        row["XHPF"] = (runs.speedup(runs.xhpf.time)
                       if runs.xhpf is not None else None)
        row["PVMe"] = runs.speedup(runs.pvme.time)
        rows.append(row)
    return rows


@artifact("Figure 7: synchronous vs asynchronous data fetching",
          ("app", "Tmk", "Sync", "Async"),
          Claim("figure7.async_dominates", "async fetching dominates sync "
                "in almost all cases (read: at most 0.1 % slower in four "
                "programs or more)", (4, INF), _count(
                    _improves("Async", "Sync"), -0.1), " programs"),
          Claim("figure7.async", "and by a margin (read: 3 % faster in "
                "three programs)", (3, INF),
                _count(_improves("Async", "Sync"), 3), " programs",
                deviation=3, explains={"": 0}),
          Claim("figure7.both_beat_base", "both modes beat base TreadMarks",
                (0, INF), _each(lambda r: min(_improves(mode, "Tmk")(r)
                                              for mode in ("Sync", "Async")))))
def figure7(dataset: str = DEFAULT_DATASET,
            nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    rows = []
    for app in all_apps().values():
        runs = app_runs(app, dataset, nprocs, include_sync_fetch=True)
        level = runs.best_level()
        sync = runs.dsm_sync.get(level)
        rows.append({
            "app": app.name,
            "Tmk": runs.speedup(runs.base.time),
            "Sync": runs.speedup(sync.time) if sync else None,
            "Async": runs.speedup(runs.dsm[level].time),
        })
    return rows


@artifact("Execution-time breakdown (per-processor average, % of run "
          "time)", ("app", "mode", "speedup", "compute%", "protect%",
                    "twin%", "diff%", "barrier%", "lock%", "fetch%",
                    "other%"),
          Claim("breakdown.compute_up", "optimizing shifts time to compute",
                (0, INF), _opt_minus_base("compute%"), " pt"),
          Claim("breakdown.fetch_down", "optimizing shrinks fetch stalls",
                (-INF, 0), _opt_minus_base("fetch%"), " pt"),
          Claim("breakdown.lock_is", "IS, the lock-synchronized program, "
                "waits on locks in its base run", (1, INF),
                _base("lock%", lambda app: app == "is")),
          Claim("breakdown.lock_barrier_apps", "the other programs never "
                "wait on a lock in theirs", (0, 0),
                _base("lock%", lambda app: app != "is")),
          note=("'other' covers message send/receive CPU, interrupt "
                "servicing and residual idle."))
def breakdown(dataset: str = DEFAULT_DATASET,
              nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    """Where DSM time goes (Section 6's discussion, quantified)."""
    rows = []
    for app in all_apps().values():
        runs = app_runs(app, dataset, nprocs)
        for label, res in (("base", runs.base),
                           (runs.best_level(), runs.opt)):
            frac = res.stats.breakdown(res.time * nprocs)
            row = {"app": app.name, "mode": label,
                   "speedup": runs.speedup(res.time)}
            row.update({f"{k}%": 100.0 * v for k, v in frac.items()})
            rows.append(row)
    return rows


@artifact("Speedup scaling with processor count",
          ("app", *(f"{m}@{n}" for n in SCALING_PROCS for m in ("Tmk",
                                                                 "Opt"))),
          Claim("scaling.opt_scales", "more processors, more optimized "
                "speedup", (1, INF),
                _each(lambda r: r[f"Opt@{_HI}"] / r[f"Opt@{_LO}"]), "x"),
          Claim("scaling.gain_grows", "the optimized-vs-base advantage "
                "grows with the processor count (Section 6.4)", (1, INF),
                _each(lambda r: r[f"Opt@{_HI}"] / r[f"Tmk@{_HI}"]
                      / (r[f"Opt@{_LO}"] / r[f"Tmk@{_LO}"])), "x",
                deviation=6, explains={"shallow": 0.9}), sizing=("dataset",))
def scaling(dataset: str = DEFAULT_DATASET) -> List[dict]:
    """Figure 5's Tmk and Opt-Tmk bars at each processor count."""
    rows = {app.name: {"app": app.name} for app in all_apps().values()}
    for n in SCALING_PROCS:
        for r in figure5(dataset, n):
            rows[r["app"]].update({f"Tmk@{n}": r["Tmk"],
                                   f"Opt@{n}": r["Opt-Tmk"]})
    return list(rows.values())


@artifact("Communication-cost sensitivity (Jacobi)",
          ("comm x", "Tmk", "Opt-Tmk", "PVMe"),
          Claim("sensitivity.opt_wins", "the methods help at every "
                "communication cost (Section 1)", (0, INF),
                _each(_improves("Opt-Tmk", "Tmk"), key="comm x")),
          Claim("sensitivity.gain_grows", "their advantage grows with the "
                "cost", (1, INF), lambda rows: {"": rows[-1]["Opt-Tmk"]
                                                / rows[-1]["Tmk"] / (
                    rows[0]["Opt-Tmk"] / rows[0]["Tmk"])}, "x"))
def sensitivity(dataset: str = DEFAULT_DATASET,
                nprocs: int = DEFAULT_NPROCS) -> List[dict]:
    """Jacobi with every communication cost scaled by 1/4, 1 and 4."""
    app = all_apps()["jacobi"]
    rows = []
    base_cfg = MachineConfig()
    seq_time = run_seq(app.program(dataset, 1)).time
    for f in (0.25, 1.0, 4.0):
        cfg = replace(base_cfg, bandwidth=base_cfg.bandwidth / f, **{
            k: getattr(base_cfg, k) * f for k in (
                "send_overhead", "recv_overhead", "interrupt_cost",
                "wire_latency")})
        spec = RunSpec(app=app, dataset=dataset, nprocs=nprocs,
                       page_size=DEFAULT_PAGE, config=cfg, snapshot=False)
        base = run(spec)
        best = min((run(spec, opt=opt)
                    for opt in applicable_levels(app).values()
                    if opt is not None), key=lambda res: res.time)
        pvme = run(spec, mode="mp")
        rows.append({"comm x": f, "Tmk": seq_time / base.time,
                     "Opt-Tmk": seq_time / best.time,
                     "PVMe": seq_time / pvme.time})
    return rows


ABLATION_JACOBI = {"M": 128, "N": 128, "iters": 5, "cost_scale": 64}
ABLATION_GAUSS = {"N": 96, "cost_scale": 64}


def _change(*ablations):
    """``ours``: the ``change %`` of the named ablation rows."""
    return _each(lambda r: r["change %"], ablations, "ablation")


def _push_less_than_base(rows):
    change = {r["ablation"]: r["change %"] for r in rows}
    return {"": change["4 KB pages, push"] - change["4 KB pages, base"]}


@artifact("Ablations (Jacobi 128x128, 5 iterations; Gauss N=96; 8 "
          "processors)", ("ablation", "measure", "before", "after",
                          "change %"),
          Claim("ablation.false_sharing", "4 KB pages, shared by several "
                "columns, grow base TreadMarks' data (against 1 KB pages, "
                "one column each)", (1, INF), _change("4 KB pages, base")),
          Claim("ablation.push_flat", "Push's exact sections grow less",
                (-INF, 0), _push_less_than_base, " pt"),
          Claim("ablation.broadcast", "donations priced as n-1 sends, not a "
                "pipelined broadcast, slow Gauss's merge", (0, INF),
                _change("bcast as n-1 sends")),
          Claim("ablation.interrupt_dsm", "4x interrupt cost slows the DSM",
                (1, INF), _change("4x interrupts, base")),
          Claim("ablation.interrupt_pvme", "and leaves PVMe (interrupts "
                "off) untouched", (0, 0), _change("4x interrupts, PVMe")),
          Claim("ablation.eager_diffs", "eager diffing encodes diffs lazy "
                "diffing never does", (1, INF), _change("eager diffing")),
          Claim("ablation.eager_time", "and is no faster", (0, INF),
                _change("eager diffing, time")),
          note=("'before' is the default run: 1 KB pages, a pipelined "
                "broadcast, the calibrated interrupt cost, lazy diffing."),
          sizing=())
def ablation() -> List[dict]:
    """What each mechanism behind the figures changes, at fixed sizes."""
    cfg = MachineConfig()
    irq4 = replace(cfg, interrupt_cost=cfg.interrupt_cost * 4)

    def go(app, params=ABLATION_JACOBI, opt=None, **kw):
        return run(RunSpec(app=app, params=params, opt=opt, nprocs=8,
                           snapshot=False, **{"page_size": 1024, **kw}))

    lazy, eager = go("jacobi"), go("jacobi", eager_diffing=True)
    data = lambda out: out.data_bytes
    msecs = lambda out: out.time / 1e3
    pairs = [(f"{label} pages, {opt or 'base'}", "data B", data, before,
              go("jacobi", opt=opt, page_size=size))
             for opt, before in ((None, lazy),
                                 ("push", go("jacobi", opt="push")))
             for label, size in (("512 B", 512), ("2 KB", 2048),
                                 ("4 KB", 4096))] + [
        ("bcast as n-1 sends", "sim ms", msecs,
         go("gauss", ABLATION_GAUSS, "merge"),
         go("gauss", ABLATION_GAUSS, "merge", config=replace(
             cfg, bcast_extra_per_dest=cfg.send_overhead))),
        ("4x interrupts, base", "sim ms", msecs, lazy,
         go("jacobi", config=irq4)),
        ("4x interrupts, PVMe", "sim ms", msecs, go("jacobi", mode="mp"),
         go("jacobi", mode="mp", config=irq4)),
        ("eager diffing", "diffs", lambda out: out.stats.diffs_created,
         lazy, eager),
        ("eager diffing, time", "sim ms", msecs, lazy, eager)]
    return [{"ablation": label, "measure": measure, "before": f(before),
             "after": f(after), "change %": slower(f(after), f(before))}
            for label, measure, f, before, after in pairs]
