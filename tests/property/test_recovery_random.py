"""Property tests for crash recovery.

Three families:

* **Transport contract across a crash.**  A crash makes the victim's
  NIC dark for the reboot window; frames in flight are lost in both
  directions.  The reliable transport must still deliver every message
  stream *exactly once, in per-channel send order* — the retransmit
  machinery alone must absorb the window.

* **Crash determinism.**  A crashed DSM run is a pure function of
  (program, crash schedule): running the same case twice must
  reproduce identical results, simulated time and network statistics.

* **Crash transparency.**  For random single-crash schedules (any
  victim, any fraction of the fault-free run time), the recovered run
  must produce results bit-identical to the fault-free run.

The DSM families draw their program too: jacobi (barriers only, at a
hinted opt level) or ``is/base`` (the app with lock traffic).
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Absence, FaultPlan
from repro.harness import RunSpec, run
from repro.machine import MachineConfig
from repro.net import Network
from repro.sim import Engine

N_MSGS = 12


def _build(nprocs, mains, faults):
    engine = Engine()
    net = Network(engine, MachineConfig(nprocs=nprocs), nprocs,
                  faults=faults)
    endpoints = {}
    for i, main in enumerate(mains):
        proc = engine.add_process(f"p{i}",
                                  lambda p, m=main: m(p, endpoints))
        endpoints[i] = net.attach(proc)
    return engine, net, endpoints


crash_window = st.tuples(
    st.sampled_from([0, 1]),                 # which endpoint crashes
    st.floats(10.0, 400.0),                  # window start
    st.floats(50.0, 500.0))                  # reboot duration


@given(crash_window)
@settings(max_examples=25, deadline=None)
def test_delivery_exactly_once_in_order_across_crash(window):
    """Streams crossing a crash's dark window still arrive exactly once.

    The messages themselves model protocol traffic that the recovery
    layer re-issues or the transport retransmits; either endpoint of
    the channel may be the one whose NIC goes dark.
    """
    who, t0, dur = window
    plan = FaultPlan(absences=(Absence("crash", who, t0, dur),))
    got = []

    def sender(proc, eps):
        for i in range(N_MSGS):
            eps[1].send(0, "data", payload=i)
            proc.advance(60.0)   # spread sends across the dark window

    def receiver(proc, eps):
        for _ in range(N_MSGS):
            msg = eps[0].recv(kind="data", src=1)
            got.append(msg.payload)

    engine, net, eps = _build(2, [receiver, sender], plan)
    engine.run()
    # Exactly once, in order: each payload appears once, in send order —
    # dedup absorbed every fabric/retransmit copy before delivery.
    assert got == list(range(N_MSGS))


schedule = st.tuples(st.integers(0, 3), st.floats(0.05, 0.95),
                     st.floats(500.0, 30000.0))
#: A barrier-only app at a hinted level, and the lock app.
determinism_input = st.sampled_from([("jacobi", "aggr"), ("is", "base")])
transparency_input = st.sampled_from([("jacobi", "aggr+cons"),
                                      ("is", "base")])

@lru_cache(maxsize=None)
def _base(app, opt):
    """The spec and its fault-free outcome, run once per input."""
    spec = RunSpec(app=app, mode="dsm", dataset="tiny", nprocs=4,
                   opt=opt)
    return spec, run(spec)


@given(determinism_input, schedule)
@settings(max_examples=12, deadline=None)
def test_same_schedule_is_byte_identical(which, sched):
    pid, frac, reboot = sched
    spec, base = _base(*which)
    plan = FaultPlan(absences=(
        Absence("crash", pid, base.time * frac, reboot),))
    a, b = run(spec, faults=plan), run(spec, faults=plan)
    assert a.time == b.time
    assert a.net.messages == b.net.messages
    assert a.net.retransmits == b.net.retransmits
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])


@given(transparency_input, schedule)
@settings(max_examples=12, deadline=None)
def test_random_single_crash_converges_to_fault_free(which, sched):
    pid, frac, reboot = sched
    spec, base = _base(*which)
    plan = FaultPlan(absences=(
        Absence("crash", pid, base.time * frac, reboot),))
    out = run(spec, faults=plan)
    for name in base.arrays:
        assert np.array_equal(base.arrays[name], out.arrays[name]), name
