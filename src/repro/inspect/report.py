"""One-stop inspection report for a traced run.

:class:`InspectReport` bundles the three analyses (page timelines,
contention profile, critical path) over one traced
:class:`~repro.harness.outcome.RunOutcome`, cross-checks them against
the run's independent ``TmStats`` / ``NetStats`` accounting
(:meth:`reconcile`), and renders the whole thing as ASCII tables via
:mod:`repro.harness.report` or as JSON via :meth:`as_dict`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ReproError
from repro.harness.report import render_table
from repro.inspect.contention import ContentionProfile
from repro.inspect.critpath import CriticalPath
from repro.inspect.timeline import PageTimelines


class InspectReport:
    """The three protocol analyses plus their reconciliation."""

    def __init__(self, outcome, timelines: PageTimelines,
                 contention: ContentionProfile, critpath: CriticalPath,
                 title: str = "run") -> None:
        self.outcome = outcome
        self.timelines = timelines
        self.contention = contention
        self.critpath = critpath
        self.title = title

    # ------------------------------------------------------------------

    @classmethod
    def build(cls, outcome, title: str = "run") -> "InspectReport":
        tel = outcome.telemetry
        if tel is None:
            raise ReproError(
                "InspectReport needs a traced run; pass telemetry=True "
                "in the RunSpec")
        return cls(
            outcome,
            timelines=PageTimelines.from_telemetry(tel),
            contention=ContentionProfile.from_telemetry(tel),
            critpath=CriticalPath.from_telemetry(tel,
                                                 end_ts=outcome.time),
            title=title)

    # ------------------------------------------------------------------
    # Reconciliation against the run's independent accounting.
    # ------------------------------------------------------------------

    def reconcile(self, rtol: float = 1e-6) -> List[str]:
        """Cross-check analysis totals against ``TmStats``/``NetStats``.

        Returns a list of mismatch descriptions; empty means every
        reconstructed total matches the protocol's own counters exactly
        (times within ``rtol``).
        """
        problems: List[str] = []
        problems.extend(f"timeline: {v}"
                        for v in self.timelines.violations)

        stats = self.outcome.stats
        if stats is not None:
            recon = self.timelines.totals()
            for name in ("read_faults", "write_faults", "invalidations",
                         "twins_created", "diffs_created",
                         "diffs_applied", "diff_bytes_applied",
                         "full_pages_served", "home_flushes",
                         "home_applies", "page_fetches", "pages_served",
                         "home_migrations"):
                got, want = recon[name], getattr(stats, name)
                if got != want:
                    problems.append(
                        f"{name}: timeline={got} TmStats={want}")
            waits = (("t_lock_wait", self.contention.total_lock_wait()),
                     ("t_barrier_wait",
                      self.contention.total_barrier_wait()),
                     ("t_fetch_wait", self._fetch_wait()))
            for name, got in waits:
                want = getattr(stats, name)
                if abs(got - want) > rtol * max(1.0, abs(want)):
                    problems.append(
                        f"{name}: spans={got:.3f} TmStats={want:.3f}")

        net = self.outcome.net
        tel = self.outcome.telemetry
        if net is not None and tel is not None and tel.bus.enabled:
            n_msg = sum(1 for ev in tel.bus.events
                        if ev.kind == "net.msg")
            if n_msg != net.messages:
                problems.append(f"messages: events={n_msg} "
                                f"NetStats={net.messages}")
            problems.extend(self._reconcile_onesided(net, tel))

        problems.extend(self._reconcile_accesses())

        cp_total = sum(self.critpath.totals().values())
        end = self.critpath.end_ts
        if abs(cp_total - end) > rtol * max(1.0, abs(end)):
            problems.append(f"critical path: segments sum to "
                            f"{cp_total:.3f}, end-to-end is {end:.3f}")
        return problems

    @staticmethod
    def _reconcile_onesided(net, tel) -> List[str]:
        """Cross-check ``net.rdma.*`` events against the one-sided
        NetStats counters.

        Exact-match accounting doctrine: one ``net.rdma.batch`` event
        per doorbell, one ``net.rdma.op`` per op, write payload bytes
        counted at post (on the op event), read response bytes at
        completion (on the ``net.rdma.cmpl`` event), one
        ``net.rdma.cas_fail`` per failed compare-and-swap.  On the
        default two-sided plane all of these are zero on both sides.
        """
        batches = ops = nbytes = cas_fails = 0
        for ev in tel.bus.events:
            if ev.kind == "net.rdma.batch":
                batches += 1
            elif ev.kind == "net.rdma.op":
                ops += 1
                nbytes += (ev.args or {}).get("bytes", 0)
            elif ev.kind == "net.rdma.cmpl":
                nbytes += (ev.args or {}).get("bytes", 0)
            elif ev.kind == "net.rdma.cas_fail":
                cas_fails += 1
        problems: List[str] = []
        for name, got, want in (
                ("onesided_batches", batches, net.onesided_batches),
                ("onesided_ops", ops, net.onesided_ops),
                ("onesided_bytes", nbytes, net.onesided_bytes),
                ("onesided_cas_failures", cas_fails,
                 net.onesided_cas_failures)):
            if got != want:
                problems.append(
                    f"{name}: events={got} NetStats={want}")
        return problems

    def _reconcile_accesses(self) -> List[str]:
        """Cross-check fault events against ``rt.*`` access events.

        When the run was traced with access events enabled (the
        sanitizer's ``Telemetry(access_events=True)``), every page
        fault must be explained by a program access the processor
        already announced: the runtime emits ``rt.read``/``rt.write``
        *before* touching the pages, so in bus order a fault on a page
        the processor never declared is an instrumentation hole.
        """
        tel = self.outcome.telemetry
        if tel is None or not tel.bus.enabled:
            return []
        problems: List[str] = []
        reads: dict = {}
        writes: dict = {}
        seen_access = False
        for ev in tel.bus.events:
            if ev.kind == "rt.read" or ev.kind == "rt.write":
                seen_access = True
                pool = reads if ev.kind == "rt.read" else writes
                pool.setdefault(ev.pid, set()).update(ev.args["pages"])
            elif ev.kind in ("tm.read_fault", "tm.write_fault"):
                if not seen_access:
                    continue   # access events disabled for this run
                pool = reads if ev.kind == "tm.read_fault" else writes
                page = ev.args["page"]
                if page not in pool.get(ev.pid, set()):
                    problems.append(
                        f"{ev.kind}: P{ev.pid} faulted on page {page} "
                        f"with no preceding access event covering it")
        return problems

    def _fetch_wait(self) -> float:
        # Home-based backends charge their release-time flush waits to
        # t_fetch_wait too, under the "wait.flush" span.
        return sum(s.dur for s in self.outcome.telemetry.spans.spans
                   if s.name in ("wait.fetch", "wait.flush"))

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def render(self, top: int = 10) -> str:
        parts = [self._render_summary()]
        if self.timelines.counters:
            parts.append(self._render_hot_pages(top))
            mw = self.timelines.multi_writer_pages(top)
            if mw:
                parts.append(self._render_multi_writer(mw))
        parts.append(self._render_locks(top))
        if self.contention.barriers:
            parts.append(self._render_barriers(top))
        parts.append(self._render_critpath(top))
        problems = self.reconcile()
        if problems:
            parts.append("RECONCILIATION MISMATCHES\n"
                         + "\n".join(f"  ! {p}" for p in problems))
        else:
            parts.append("Totals reconcile with TmStats/NetStats; "
                         "no timeline invariant violations.")
        return "\n\n".join(parts)

    def _render_summary(self) -> str:
        out = self.outcome
        rows = [["simulated time (us)", out.time],
                ["messages", out.messages],
                ["data bytes", out.data_bytes],
                ["pages touched", len(self.timelines.counters)],
                ["timeline violations",
                 len(self.timelines.violations)]]
        if out.stats is not None:
            rows.insert(3, ["page faults (segv)", out.stats.segv])
        return render_table(f"Protocol inspection: {self.title}",
                            ["quantity", "value"], rows)

    def _render_hot_pages(self, top: int) -> str:
        rows = [[c.page, c.read_faults, c.write_faults, c.invalidations,
                 c.twins, c.diffs_created, c.diffs_applied, c.diff_bytes,
                 _pids(c.writers), _pids(c.readers)]
                for c in self.timelines.hot_pages(top)]
        return render_table(
            f"Hot pages (top {len(rows)} by faults+invalidations+diffs)",
            ["page", "rfault", "wfault", "inval", "twin", "diffc",
             "diffa", "dbytes", "writers", "readers"], rows)

    def _render_multi_writer(self, mw) -> str:
        rows = [[c.page, _pids(c.writers), c.invalidations,
                 c.diffs_applied, c.diff_bytes] for c in mw]
        return render_table(
            "Multi-writer pages (false-sharing candidates)",
            ["page", "writers", "inval", "diffa", "dbytes"], rows)

    def _render_locks(self, top: int) -> str:
        rows = [[l.lid, l.acquires, l.grants, _pids(l.waiters),
                 l.total_wait, l.mean_wait, l.max_wait]
                for l in self.contention.hot_locks(top)]
        return render_table(
            "Lock contention (by total wait, us)",
            ["lock", "acq", "grants", "waiters", "total", "mean",
             "max"], rows,
            note=None if rows else "no lock activity in this run")

    def _render_barriers(self, top: int) -> str:
        epochs = self.contention.epochs()
        shown = epochs if len(epochs) <= top \
            else self.contention.worst_epochs(top)
        rows = [[b.epoch, b.total_wait, b.spread,
                 "-" if b.straggler is None else f"P{b.straggler}"]
                for b in shown]
        title = ("Barrier epochs (wait time, us)"
                 if shown is epochs else
                 f"Barrier epochs (worst {len(rows)} by spread, us)")
        return render_table(title,
                            ["epoch", "total", "spread", "straggler"],
                            rows)

    def _render_critpath(self, top: int) -> str:
        totals = self.critpath.totals()
        end = self.critpath.end_ts or 1.0
        rows = [[cat, totals[cat], 100.0 * totals[cat] / end]
                for cat in ("compute", "protocol", "wait", "comm",
                            "other")]
        head = render_table(
            "Critical path: end-to-end time by category",
            ["category", "us", "%"], rows,
            note=f"dominant: {self.critpath.dominant()}  "
                 f"(chain of {len(self.critpath.segments)} segments, "
                 f"{self.critpath.hops()} processor hops)")
        seg_rows = [[f"P{s.pid}", s.category, s.t0, s.t1, s.dur,
                     s.detail]
                    for s in self.critpath.top_segments(top)]
        segs = render_table(
            f"Longest critical-path segments (top {len(seg_rows)})",
            ["proc", "category", "t0", "t1", "dur", "detail"],
            seg_rows)
        return head + "\n\n" + segs

    # ------------------------------------------------------------------

    def as_dict(self, top: int = 10) -> dict:
        out = self.outcome
        rec = out.record()
        d = {
            "title": self.title,
            **{k: rec[k] for k in ("time_us", "messages", "data_bytes")},
            "pages": self.timelines.as_dict(top),
            "contention": self.contention.as_dict(top),
            "critical_path": self.critpath.as_dict(top),
            "reconcile": self.reconcile(),
        }
        if out.stats is not None:
            d["tm_stats"] = out.stats.as_dict()
        return d


def _pids(pids) -> str:
    return ",".join(f"P{p}" for p in sorted(pids)) or "-"


def inspect_run(spec=None, **kwargs) -> InspectReport:
    """Run per spec/kwargs (forcing telemetry on) and build the report."""
    from repro.harness.spec import RunSpec, run
    from dataclasses import replace
    if spec is None:
        spec = RunSpec(**kwargs)
    elif kwargs:
        spec = replace(spec, **kwargs)
    if spec.telemetry is False:
        spec = replace(spec, telemetry=True)
    outcome = run(spec)
    app = spec.app if isinstance(spec.app, str) else \
        getattr(spec.resolve_app(), "name", "program")
    title = f"{app} mode={spec.mode} nprocs={spec.nprocs}" + \
        (f" opt={spec.opt}" if isinstance(spec.opt, str) else "")
    return InspectReport.build(outcome, title=title)
