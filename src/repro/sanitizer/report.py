"""Sanitizer findings and the report object the CLI renders.

Two families of findings:

``race``                two conflicting accesses not ordered by the LRC
                        happens-before (both sites + the sync paths
                        that failed to order them).
``hint``                a compiler hint claimed more than the program
                        honored (or an access escaped its hint), i.e.
                        the silent-miscompile precondition:
                        * ``uncovered-read`` / ``uncovered-write`` — an
                          access under a consistency-eliminating level
                          escapes the region's validates (rule R1);
                        * ``partial-overwrite`` — a WRITE_ALL interval
                          retired an overwrite page the program did not
                          fully write (rule R2);
                        * ``unpushed-write`` — bytes written before a
                          Push were missing from its declared write
                          sections (rule R3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


def name_element(array: str, index) -> str:
    """``array[i, j]``: how findings name an element."""
    return f"{array}[{', '.join(str(int(i)) for i in index)}]"


def describe_event(ev) -> str:
    """One-line access/event description for finding sites."""
    args = ev.args or {}
    what = args.get("array", "")
    dims = args.get("dims")
    if dims is not None:
        spans = ", ".join(f"{lo}:{hi}" + (f":{step}" if step != 1 else "")
                          for lo, hi, step in dims)
        what = f"{what}({spans})"
    return f"P{ev.pid} {ev.kind} {what} @t={ev.ts:.1f}us epoch={ev.epoch}"


@dataclass
class Finding:
    """One sanitizer diagnostic (possibly folding many occurrences)."""

    category: str                   # "race" | "hint"
    kind: str                       # see module docstring
    pid: int
    array: str
    where: str                      # first offending element, located
    detail: str                     # human one-liner
    site: str = ""                  # current access / event description
    other: str = ""                 # prior access (races)
    sync: str = ""                  # sync-path context of both sides
    count: int = 1                  # folded occurrences

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v != ""}

    def render(self) -> str:
        lines = [f"[{self.category}:{self.kind}] {self.detail} "
                 f"(x{self.count})" if self.count > 1 else
                 f"[{self.category}:{self.kind}] {self.detail}"]
        if self.site:
            lines.append(f"    access : {self.site}")
        if self.other:
            lines.append(f"    versus : {self.other}")
        if self.sync:
            lines.append(f"    sync   : {self.sync}")
        return "\n".join(lines)


@dataclass
class SanitizeReport:
    """Everything one sanitizer pass concluded about one run."""

    nprocs: int
    opt: Optional[str] = None
    hint_checking: bool = False
    findings: List[Finding] = field(default_factory=list)
    events: int = 0
    accesses: int = 0
    bytes_checked: int = 0
    sync_counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def races(self) -> List[Finding]:
        return [f for f in self.findings if f.category == "race"]

    @property
    def hint_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.category == "hint"]

    @property
    def ok(self) -> bool:
        return not self.findings and not self.problems

    # ------------------------------------------------------------------

    def reconcile(self, outcome) -> List[str]:
        """Cross-check the sanitizer's view against the run's TmStats.

        The tracker counted sync edges straight off the event stream;
        the protocol counted them as it executed.  Disagreement means
        the stream is incomplete and every "clean" verdict is suspect.
        """
        stats = outcome.stats
        checks = [
            ("lock hand-offs", self.sync_counts.get("lock_grants", 0),
             stats.lock_acquires - stats.lock_local_acquires),
            ("pushes", self.sync_counts.get("pushes", 0), stats.pushes),
            ("barrier episodes",
             self.sync_counts.get("barriers", 0) * self.nprocs,
             stats.barriers),
        ]
        for name, seen, expected in checks:
            if seen != expected:
                self.problems.append(
                    f"stream/stats mismatch: {name} seen={seen} "
                    f"stats={expected}")
        return self.problems

    # ------------------------------------------------------------------

    def summary(self) -> str:
        mode = "races+hints" if self.hint_checking else "races"
        verdict = "CLEAN" if self.ok else (
            f"{len(self.races)} race(s), "
            f"{len(self.hint_findings)} hint violation(s)"
            + (f", {len(self.problems)} stream problem(s)"
               if self.problems else ""))
        return (f"sanitize[{mode}] opt={self.opt or 'base'} "
                f"nprocs={self.nprocs}: {verdict} "
                f"({self.events} events, {self.accesses} accesses, "
                f"{self.bytes_checked} bytes checked)")

    def render(self) -> str:
        lines = [self.summary()]
        for f in self.findings:
            lines.append(f.render())
        for p in self.problems:
            lines.append(f"[stream] {p}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "opt": self.opt,
            "nprocs": self.nprocs,
            "hint_checking": self.hint_checking,
            "ok": self.ok,
            "races": len(self.races),
            "hint_violations": len(self.hint_findings),
            "events": self.events,
            "accesses": self.accesses,
            "bytes_checked": int(self.bytes_checked),
            "sync_counts": dict(self.sync_counts),
            "findings": [f.as_dict() for f in self.findings],
            "problems": list(self.problems),
        }
