"""The sanitizer's soundness proof, both directions.

Completeness (no false positives): :func:`clean_matrix` runs every app
at every applicable opt level under the sanitizer and expects zero
findings — the compiler's hints really do cover every access and the
sync structure really does order every conflicting pair.

Detection (no false negatives): :func:`build_corpus` enumerates
deliberate hint mutations — shrunk, shifted and dropped regular
sections, injected into the transformed program through the
``hint_mutation`` hook in :mod:`repro.compiler.transform` — and
:func:`run_corpus` verifies every one of them is reported.

What the corpus mutates, and why only that:

* **Overwriting validates** (WRITE_ALL / READ_WRITE_ALL): their
  sections equal what the region writes, exactly, by construction —
  shrinking or shifting one makes real writes escape coverage (R1).
  *Dropping* one is excluded: an absent hint re-arms fault-based
  consistency for its accesses, which is slow but sound.
* **Push write specs**: shrink, shift *and* drop — any written byte
  missing from the declared sections is data the receivers never get,
  caught by R3 against the interval write log.
* **Push read specs**: shrink and shift, for pushes whose following
  region has no surviving read validate over the same array (a
  surviving validate would legitimately re-cover the reads, making the
  mutation unobservable — not undetected, genuinely harmless).

Every mutation stays in-bounds (shifts clamp to the array extent), so
the mutated programs run to completion; their numeric results may
diverge, which is irrelevant — the proof is about detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.expr import Bin, Num, as_expr
from repro.lang.nodes import PushStmt, SectionSpec, ValidateStmt
from repro.rt.access import AccessType

OVERWRITING = (AccessType.WRITE_ALL, AccessType.READ_WRITE_ALL)

#: Opt levels at which hint checking is armed (consistency elimination
#: and stronger) — the only levels where a bad hint is dangerous.
ELIMINATING = ("aggr+cons", "merge", "push")


# ----------------------------------------------------------------------
# Clean matrix.
# ----------------------------------------------------------------------

@dataclass
class SanitizeCase:
    """One (app, opt) cell of the clean matrix."""

    app: str
    opt: str
    ok: bool
    races: int
    hint_findings: int
    problems: int
    events: int
    accesses: int
    report: object = None

    def row(self) -> List:
        return [self.app, self.opt,
                "clean" if self.ok else "FINDINGS",
                self.races, self.hint_findings, self.problems,
                self.events, self.accesses]


def _dsm_cells(apps, opts, protocol=None, data_plane=None, **sizing):
    """The run matrix's DSM cells on one backend and plane, apps in
    name order unless given."""
    from repro.apps import all_apps
    from repro.harness.modes import run_matrix

    return run_matrix(apps if apps is not None else sorted(all_apps()),
                      opts, modes=("dsm",), protocols=[protocol],
                      data_planes=[data_plane], **sizing)


def clean_matrix(apps: Optional[Sequence[str]] = None,
                 opts: Optional[Sequence[str]] = None,
                 **run_kw) -> List[SanitizeCase]:
    """Sanitize every app at every applicable opt level (``run_kw``:
    ``protocol``, ``data_plane`` and sizing)."""
    from repro.sanitizer.replay import sanitize_run

    cases: List[SanitizeCase] = []
    for spec in _dsm_cells(apps, opts, **run_kw):
        _, rep = sanitize_run(spec)
        cases.append(SanitizeCase(
            app=spec.app, opt=spec.opt, ok=rep.ok, races=len(rep.races),
            hint_findings=len(rep.hint_findings),
            problems=len(rep.problems), events=rep.events,
            accesses=rep.accesses, report=rep))
    return cases


def render_matrix(cases: Sequence[SanitizeCase]) -> str:
    from repro.harness.report import render_table

    clean = sum(c.ok for c in cases)
    return render_table(
        "Sanitizer clean matrix (app x opt level)",
        ["app", "opt", "status", "races", "hints", "problems",
         "events", "accesses"],
        [c.row() for c in cases],
        note=f"{clean}/{len(cases)} combinations clean")


# ----------------------------------------------------------------------
# Mutation corpus.
# ----------------------------------------------------------------------

@dataclass
class HintMutation:
    """One corpus entry: mutate hint ``site`` of (app, opt) with ``op``."""

    app: str
    opt: str
    site: int
    target: str  # "validate" | "push-read" | "push-write"
    op: str      # "shrink" | "shift" | "drop"
    array: str
    original: str
    mutated: str
    detected: Optional[bool] = None
    finding_kinds: Tuple[str, ...] = field(default_factory=tuple)

    def row(self) -> List:
        status = {None: "-", True: "DETECTED", False: "MISSED"}
        return [self.app, self.opt, self.site, self.target, self.op,
                self.array, status[self.detected],
                ",".join(self.finding_kinds) or "-"]


def _shift_bound(expr, step: int, limit: int):
    """``min(expr + step, limit)`` — shift that cannot leave the array."""
    return Bin("min", as_expr(expr) + step, Num(limit))


def mutate_spec(spec: SectionSpec, op: str,
                shape: Sequence[int]) -> Optional[SectionSpec]:
    """Shrink or shift ``spec`` along its first multi-element dim.

    Single-element dims (``repr(lo) == repr(hi)``) carry no room to
    mutate without emptying the section on some processor; returns
    ``None`` when no dim is eligible.
    """
    for d, (lo, hi, step) in enumerate(spec.dims):
        if repr(lo) == repr(hi):
            continue
        dims = list(spec.dims)
        if op == "shrink":
            dims[d] = (lo, as_expr(hi) - step, step)
        elif op == "shift":
            limit = int(shape[d]) - 1
            dims[d] = (_shift_bound(lo, step, limit),
                       _shift_bound(hi, step, limit), step)
        else:
            raise ValueError(f"unknown mutation op {op!r}")
        return SectionSpec(spec.array, tuple(dims))
    return None


def apply_mutation(stmt, entry: HintMutation,
                   shapes: Dict[str, Sequence[int]]):
    """The mutated replacement for ``stmt`` described by ``entry``."""
    if entry.target == "validate":
        specs = list(stmt.specs)
        for i, spec in enumerate(specs):
            mut = mutate_spec(spec, entry.op, shapes[spec.array])
            if mut is not None:
                specs[i] = mut
                return dc_replace(stmt, specs=specs)
        raise AssertionError(f"no mutable spec at site {entry.site}")
    side = "reads" if entry.target == "push-read" else "writes"
    specs = list(getattr(stmt, side))
    if entry.op == "drop":
        return dc_replace(stmt, **{side: specs[1:]})
    mut = mutate_spec(specs[0], entry.op, shapes[specs[0].array])
    assert mut is not None, f"no mutable spec at site {entry.site}"
    specs[0] = mut
    return dc_replace(stmt, **{side: specs})


def _surviving_read_arrays(sites) -> set:
    """Arrays covered by a read-fetching validate somewhere in the
    program — a push-read mutation of such an array can be legally
    re-covered by that validate in the post-push region."""
    arrays = set()
    for s in sites:
        if isinstance(s, ValidateStmt) and s.access.covers_read:
            arrays.update(spec.array for spec in s.specs)
    return arrays


def build_corpus(apps: Optional[Sequence[str]] = None,
                 opts: Sequence[str] = ELIMINATING,
                 **sizing) -> List[HintMutation]:
    """Enumerate every mutation the sanitizer must detect."""
    from repro.compiler.transform import hint_sites
    from repro.sanitizer.replay import _resolve

    corpus: List[HintMutation] = []
    for cell in _dsm_cells(apps, opts, **sizing):
        name, lvl = cell.app, cell.opt
        _, _, prog, _ = _resolve(name, lvl, cell.dataset, cell.nprocs,
                                 cell.page_size)
        shapes = {a.name: a.shape for a in prog.arrays}
        sites = hint_sites(prog)
        validated_reads = _surviving_read_arrays(sites)
        for i, s in enumerate(sites):
            if isinstance(s, ValidateStmt):
                if s.access not in OVERWRITING:
                    continue
                for sp in s.specs:
                    for op in ("shrink", "shift"):
                        mut = mutate_spec(sp, op, shapes[sp.array])
                        if mut is not None:
                            corpus.append(HintMutation(
                                name, lvl, i, "validate", op,
                                sp.array, repr(sp), repr(mut)))
                    break  # first mutable spec only
            elif isinstance(s, PushStmt):
                if s.writes:
                    sp = s.writes[0]
                    for op in ("shrink", "shift"):
                        mut = mutate_spec(sp, op, shapes[sp.array])
                        if mut is not None:
                            corpus.append(HintMutation(
                                name, lvl, i, "push-write", op,
                                sp.array, repr(sp), repr(mut)))
                    corpus.append(HintMutation(
                        name, lvl, i, "push-write", "drop",
                        sp.array, repr(sp), "(dropped)"))
                if s.reads and s.reads[0].array not in validated_reads:
                    sp = s.reads[0]
                    for op in ("shrink", "shift"):
                        mut = mutate_spec(sp, op, shapes[sp.array])
                        if mut is not None:
                            corpus.append(HintMutation(
                                name, lvl, i, "push-read", op,
                                sp.array, repr(sp), repr(mut)))
    return corpus


def run_corpus(corpus: Sequence[HintMutation],
               **sizing) -> List[HintMutation]:
    """Run each mutated program under the sanitizer; fill ``detected``."""
    from repro.compiler.transform import hint_mutation
    from repro.harness.modes import SIZING
    from repro.sanitizer.replay import _resolve, sanitize_run

    sizing = {**SIZING, **sizing}
    for entry in corpus:
        _, _, prog, _ = _resolve(entry.app, entry.opt, **sizing)
        shapes = {a.name: a.shape for a in prog.arrays}

        def fn(site, stmt, _entry=entry, _shapes=shapes):
            if site != _entry.site:
                return stmt
            return apply_mutation(stmt, _entry, _shapes)

        with hint_mutation(fn):
            _, rep = sanitize_run(entry.app, opt=entry.opt, **sizing)
        entry.detected = bool(rep.findings)
        entry.finding_kinds = tuple(sorted({f.kind
                                            for f in rep.findings}))
    return list(corpus)


def render_corpus(corpus: Sequence[HintMutation]) -> str:
    from repro.harness.report import render_table

    hit = sum(bool(e.detected) for e in corpus)
    return render_table(
        "Mutated-hint detection corpus",
        ["app", "opt", "site", "target", "op", "array", "status",
         "findings"],
        [e.row() for e in corpus],
        note=f"{hit}/{len(corpus)} mutations detected")
