"""Per-processor DSM statistics (Table 2's columns come from these)."""

from __future__ import annotations

from dataclasses import dataclass, fields

#: The one map from a wait span to the ``TmStats`` time field it feeds
#: (``TmNode._waited`` charges both; the inspector reconciles them).
#: hlrc's release-time flush wait counts as fetch wait.
WAIT_FIELDS = {
    "wait.barrier": "t_barrier_wait",
    "wait.lock": "t_lock_wait",
    "wait.fetch": "t_fetch_wait",
    "wait.flush": "t_fetch_wait",
}

#: The one map from a CPU charge name to the ``TmStats`` time field it
#: fills: the processor's tally under that name
#: (:attr:`repro.sim.engine.Process.tally`), copied in when the run ends
#: (:meth:`TmStats.fill_cpu`).  Every other charge name (the SIGSEGV's
#: ``cpu.fault``, request and lock service, message overheads...) is in
#: the tally alone.
CPU_FIELDS = {
    "compute": "t_compute",
    "cpu.protect": "t_protect",
    "cpu.twin": "t_twin",
    "cpu.diff": "t_diff",
}


@dataclass
class TmStats:
    """Counters for one processor's consistency activity."""

    read_faults: int = 0
    write_faults: int = 0
    protect_ops: int = 0
    twins_created: int = 0
    diffs_created: int = 0
    diffs_applied: int = 0
    diff_bytes_applied: int = 0
    full_pages_served: int = 0
    lock_acquires: int = 0
    lock_local_acquires: int = 0
    barriers: int = 0
    validates: int = 0
    pushes: int = 0
    invalidations: int = 0

    # --- home-based protocol (hlrc; zero under mw-lrc) ----------------
    #: Diffs flushed to a page's home at interval close.
    home_flushes: int = 0
    #: Flushed diffs applied at the home.
    home_applies: int = 0
    #: Whole pages fetched from a home on fault / Validate.
    page_fetches: int = 0
    #: Whole pages served by this node as home.
    pages_served: int = 0

    # --- one-sided data plane (zero on the default two-sided plane) ---
    #: Diffs / pages pulled by one-sided reads (no remote CPU).
    onesided_reads: int = 0
    #: Push payloads deposited by one-sided writes.
    onesided_writes: int = 0
    #: Lock acquires won on the CAS fast path (no manager handler).
    onesided_lock_fast: int = 0
    #: CAS retries while spinning on a held lock token.
    onesided_lock_retries: int = 0
    #: One-sided attempts that fell back to the two-sided handler path
    #: (guard veto, coverage miss, membership custody).
    onesided_fallbacks: int = 0

    # --- simulated-time breakdown (microseconds) ----------------------
    # The first four are filled from the tally (``CPU_FIELDS``).
    #: Application compute charged through the runtime.
    t_compute: float = 0.0
    #: CPU in mprotect calls (the SIGSEGV itself is ``cpu.fault``).
    t_protect: float = 0.0
    #: CPU twinning pages.
    t_twin: float = 0.0
    #: CPU creating and applying diffs.
    t_diff: float = 0.0
    #: Wall time blocked in barriers (arrival to departure).
    t_barrier_wait: float = 0.0
    #: Wall time blocked acquiring locks.
    t_lock_wait: float = 0.0
    #: Wall time blocked waiting for diff/page responses and, under
    #: hlrc, home-flush acks.
    t_fetch_wait: float = 0.0

    @property
    def segv(self) -> int:
        """Total page faults (the paper's "segv" column)."""
        return self.read_faults + self.write_faults

    def add(self, other: "TmStats") -> "TmStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)
                    + getattr(other, f.name))
        return self

    def fill_cpu(self, tally) -> None:
        """Set the ``CPU_FIELDS`` from a processor's tally."""
        for name, field in CPU_FIELDS.items():
            setattr(self, field, tally.get(name, 0.0))

    def breakdown(self, total_us: float) -> dict:
        """Fractions of ``total_us`` per category; 'other' is protocol
        CPU outside the four CPU fields (the fault itself, request and
        lock service), message overheads and idle."""
        cats = {
            "compute": self.t_compute,
            "protect": self.t_protect,
            "twin": self.t_twin,
            "diff": self.t_diff,
            "barrier": self.t_barrier_wait,
            "lock": self.t_lock_wait,
            "fetch": self.t_fetch_wait,
        }
        out = {k: v / total_us for k, v in cats.items()}
        out["other"] = max(0.0, 1.0 - sum(out.values()))
        return out

    @classmethod
    def total(cls, many) -> "TmStats":
        out = cls()
        for s in many:
            out.add(s)
        return out

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["segv"] = self.segv
        return d
