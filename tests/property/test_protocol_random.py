"""Property-based protocol tests: random race-free programs vs oracle.

Hypothesis generates random barrier-phased programs: every processor
owns a block of a shared array, writes random values into random slices
of its own block each phase, and reads arbitrary slices after barriers.
The final shared state must equal a straightforward numpy simulation,
for any processor count, page size (i.e. any amount of false sharing)
and access pattern.

A second property: inserting *consistency-preserving* Validates (READ /
WRITE / READ&WRITE) at arbitrary points must never change the result —
they are pure prefetch hints (paper Figure 3: "preserves consistency").

A third property: replaying the telemetry event stream of any such run
through :class:`repro.inspect.PageTimelines` must produce legal page
state machines only — no diff applied to a never-invalidated page, no
write fault on a write-enabled page, no twin while a twin is live — and
the reconstructed totals must equal the protocol's own ``TmStats``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inspect import PageTimelines
from repro.memory import Section, SharedLayout
from repro.rt import AccessType
from repro.telemetry import Telemetry
from repro.tm.system import TmSystem

SIZE = 64   # elements of the shared array


@st.composite
def phased_program(draw):
    nprocs = draw(st.sampled_from([2, 3, 4]))
    page_size = draw(st.sampled_from([64, 128, 256]))
    nphases = draw(st.integers(1, 4))
    block = SIZE // nprocs
    phases = []
    for _ in range(nphases):
        writes = []
        for p in range(nprocs):
            # Each processor writes 0-2 random slices of its own block.
            for _ in range(draw(st.integers(0, 2))):
                lo = draw(st.integers(0, block - 1))
                hi = draw(st.integers(lo, block - 1))
                val = draw(st.integers(1, 1000))
                writes.append((p, p * block + lo, p * block + hi,
                               float(val)))
        reads = []
        for p in range(nprocs):
            lo = draw(st.integers(0, SIZE - 1))
            hi = draw(st.integers(lo, SIZE - 1))
            reads.append((p, lo, hi))
        phases.append((writes, reads))
    return nprocs, page_size, phases


def oracle(phases):
    x = np.zeros(SIZE)
    checks = []
    for writes, reads in phases:
        for _, lo, hi, val in writes:
            x[lo:hi + 1] = val
        for p, lo, hi in reads:
            checks.append(float(x[lo:hi + 1].sum()))
    return x, checks


def run_tmk_program(nprocs, page_size, phases, validates=None,
                    telemetry=False):
    layout = SharedLayout(page_size=page_size)
    layout.add_array("x", (SIZE,))
    system = TmSystem(nprocs=nprocs, layout=layout,
                      telemetry=Telemetry() if telemetry else None)

    def main(node):
        x = node.array("x")
        sums = []
        for pi, (writes, reads) in enumerate(phases):
            if validates:
                for sec, atype in validates.get((pi, node.pid), []):
                    node.validate([sec], atype)
            for p, lo, hi, val in writes:
                if p == node.pid:
                    x[lo:hi + 1] = val
            node.barrier()
            for p, lo, hi in reads:
                if p == node.pid:
                    sums.append(float(x[lo:hi + 1].sum()))
            node.barrier()
        return sums

    res = system.run(main)
    snap = system.snapshot()
    observed = []
    for pi, (writes, reads) in enumerate(phases):
        for p, lo, hi in reads:
            observed.append(res.returns[p].pop(0))
    return snap["x"], observed, res, system.telemetry


def random_validates(data, nprocs, nphases):
    """0-2 random consistency-preserving Validates per (phase, pid)."""
    validates = {}
    for pi in range(nphases):
        for p in range(nprocs):
            entries = []
            for _ in range(data.draw(st.integers(0, 2))):
                lo = data.draw(st.integers(0, SIZE - 1))
                hi = data.draw(st.integers(lo, SIZE - 1))
                atype = data.draw(st.sampled_from(
                    [AccessType.READ, AccessType.WRITE,
                     AccessType.READ_WRITE]))
                entries.append((Section.of("x", (lo, hi)), atype))
            if entries:
                validates[(pi, p)] = entries
    return validates


@given(phased_program())
@settings(max_examples=40, deadline=None)
def test_random_phased_program_matches_oracle(case):
    nprocs, page_size, phases = case
    expected_x, expected_checks = oracle(phases)
    got_x, got_checks, _, _ = run_tmk_program(nprocs, page_size, phases)
    np.testing.assert_allclose(got_x, expected_x)
    np.testing.assert_allclose(got_checks, expected_checks)


@given(phased_program(), st.data())
@settings(max_examples=25, deadline=None)
def test_consistency_preserving_validates_are_pure_hints(case, data):
    nprocs, page_size, phases = case
    validates = random_validates(data, nprocs, len(phases))
    expected_x, expected_checks = oracle(phases)
    got_x, got_checks, _, _ = run_tmk_program(nprocs, page_size, phases,
                                              validates=validates)
    np.testing.assert_allclose(got_x, expected_x)
    np.testing.assert_allclose(got_checks, expected_checks)


@given(phased_program())
@settings(max_examples=10, deadline=None)
def test_runs_are_deterministic(case):
    nprocs, page_size, phases = case
    x1, c1, r1, _ = run_tmk_program(nprocs, page_size, phases)
    x2, c2, r2, _ = run_tmk_program(nprocs, page_size, phases)
    np.testing.assert_array_equal(x1, x2)
    assert c1 == c2
    assert r1.time == r2.time
    assert r1.messages == r2.messages
    assert r1.stats.as_dict() == r2.stats.as_dict()


@given(phased_program(), st.data())
@settings(max_examples=25, deadline=None)
def test_page_timelines_are_legal_and_reconcile(case, data):
    """Replayed page state machines contain no illegal transitions, and
    the reconstruction's totals equal the protocol's own TmStats —
    whatever the schedule, page size, or injected Validate pattern."""
    nprocs, page_size, phases = case
    validates = random_validates(data, nprocs, len(phases))
    _, _, res, tel = run_tmk_program(nprocs, page_size, phases,
                                     validates=validates,
                                     telemetry=True)
    tl = PageTimelines.from_telemetry(tel)
    assert tl.violations == []
    totals = tl.totals()
    for name in ("read_faults", "write_faults", "invalidations",
                 "twins_created", "diffs_created", "diffs_applied",
                 "diff_bytes_applied", "full_pages_served"):
        assert totals[name] == getattr(res.stats, name), name
