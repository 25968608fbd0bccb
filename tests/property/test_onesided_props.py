"""Property tests for the one-sided data plane.

Three families, matching the plane's three load-bearing promises:

* **Program order.**  Ops posted by one initiator against one
  destination land in posted order — within a batch (the NIC executes
  a batch serially, in op order) and across batches (frames ride the
  ordered transport).  Random interleavings of multiple initiators
  must each preserve their own order in the deposit log.

* **CAS linearizability.**  A CAS spinlock built on a word window
  must grant mutual exclusion under random contention: no two holders
  ever overlap, and a deliberately racy read-modify-write inside the
  critical section loses no updates.

* **Determinism and identity.**  A one-sided run is a pure function
  of its spec: same seed twice is bit-identical, the numeric results
  equal the two-sided run's, and both still hold under a random-fault
  chaos plan (one-sided frames ride the reliable transport).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.harness import RunSpec, run
from repro.machine import MachineConfig
from repro.net import Network, OneSidedPlane
from repro.net import onesided as ops
from repro.sim import Engine


def _build(nprocs, mains, config=None):
    engine = Engine()
    config = config or MachineConfig(nprocs=nprocs)
    net = Network(engine, config, nprocs)
    net.onesided = OneSidedPlane(net)
    endpoints = {}
    for i, main in enumerate(mains):
        proc = engine.add_process(f"p{i}",
                                  lambda p, m=main: m(p, endpoints))
        endpoints[i] = net.attach(proc)
    return engine, net, endpoints


# ----------------------------------------------------------------------
# In-batch / cross-batch per-(src, dst) program order.
# ----------------------------------------------------------------------

batching = st.tuples(
    st.integers(1, 24),                      # ops per sender
    st.lists(st.integers(1, 5), min_size=1, max_size=8),  # batch sizes
    st.integers(0, 3))                       # doorbell stagger (us)


@given(batching)
@settings(max_examples=40, deadline=None)
def test_writes_preserve_per_sender_program_order(params):
    n_ops, cuts, stagger = params
    log = []

    def sender(proc, eps):
        plane = eps[proc.pid].net.onesided
        if stagger:
            proc.advance(float(stagger * proc.pid))
        seq = list(range(n_ops))
        i = 0
        # Chop the op stream into batches of the drawn sizes (cycling),
        # one doorbell per chop: order must survive any chopping.
        c = 0
        while i < len(seq):
            size = cuts[c % len(cuts)]
            c += 1
            chunk = seq[i:i + size]
            i += size
            plane.post(proc.pid, 0,
                       [ops.write(("sink",), (proc.pid, s), 8)
                        for s in chunk], sync=False)

    def owner(proc, eps):
        eps[0].net.onesided.register(
            0, ("sink",), on_write=lambda v, n: log.append(v))

    engine, net, _ = _build(3, [owner, sender, sender])
    engine.run()
    for src in (1, 2):
        seen = [s for (p, s) in log if p == src]
        assert seen == list(range(n_ops))
    assert net.stats.onesided_ops == 2 * n_ops


@given(st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_sync_batch_results_in_op_order(n):
    got = {}

    def reader(proc, eps):
        res = eps[1].net.onesided.post(
            1, 0, [ops.read(("slot", i)) for i in range(n)])
        got["vals"] = [r[1] for r in res]

    def owner(proc, eps):
        plane = eps[0].net.onesided
        for i in range(n):
            plane.register(0, ("slot", i), value=i * 11, nbytes=8)

    engine, _, _ = _build(2, [owner, reader])
    engine.run()
    assert got["vals"] == [i * 11 for i in range(n)]


# ----------------------------------------------------------------------
# CAS linearizability under contention.
# ----------------------------------------------------------------------

contention = st.tuples(
    st.integers(2, 4),       # contending workers
    st.integers(1, 4),       # acquire/release rounds each
    st.integers(1, 40))      # critical-section CPU burst (us)


@given(contention)
@settings(max_examples=25, deadline=None)
def test_cas_spinlock_no_two_holders(params):
    n_workers, rounds, burst = params
    key = ("lock", 0)
    events = []          # append order == engine execution order
    shared = {"count": 0}

    def worker(proc, eps):
        plane = eps[proc.pid].net.onesided
        for _ in range(rounds):
            while True:
                (res,) = plane.post(proc.pid, 0,
                                    [ops.cas(key, "state", 0, 1)])
                if res[1]:
                    break
                # Deterministic backoff so the spin makes progress.
                target = proc.engine.now + 30.0
                proc.engine.call_at(target, proc.wake)
                while proc.engine.now < target:
                    proc.wait()
            events.append(("acq", proc.pid))
            # Deliberately racy read-modify-write: only mutual
            # exclusion keeps it lossless.
            v = shared["count"]
            proc.advance(float(burst))
            shared["count"] = v + 1
            events.append(("rel", proc.pid))
            plane.post(proc.pid, 0, [ops.cas(key, "state", 1, 0)],
                       sync=False)

    def owner(proc, eps):
        eps[0].net.onesided.register(0, key, words={"state": 0})

    mains = [owner] + [worker] * n_workers
    engine, net, _ = _build(1 + n_workers, mains)
    engine.run()

    # The single-threaded engine's execution order is the
    # linearization: acquires and releases must strictly alternate.
    holder = None
    for kind, pid in events:
        if kind == "acq":
            assert holder is None, \
                f"P{pid} acquired while P{holder} still holds"
            holder = pid
        else:
            assert holder == pid
            holder = None
    assert holder is None
    assert shared["count"] == n_workers * rounds     # no lost update
    # Contention must have produced observable CAS failures or clean
    # hand-offs; either way the books must balance.
    assert net.stats.onesided_by_op["cas"] >= 2 * n_workers * rounds


# ----------------------------------------------------------------------
# Same-seed determinism and cross-plane result identity.
# ----------------------------------------------------------------------

def _run_once(app, opt, plane=None, faults=None):
    return run(RunSpec(app=app, mode="dsm", dataset="tiny", nprocs=4,
                       opt=opt, page_size=1024, data_plane=plane,
                       faults=faults))


@pytest.mark.parametrize("app,opt", [("jacobi", "base"),
                                     ("is", "base"),
                                     ("gauss", "aggr")])
def test_onesided_run_is_deterministic_and_result_identical(app, opt):
    a = _run_once(app, opt, plane="onesided")
    b = _run_once(app, opt, plane="onesided")
    assert a.time == b.time
    assert a.stats == b.stats
    assert a.net.summary() == b.net.summary()
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])

    two = _run_once(app, opt)
    for name in two.arrays:
        assert np.array_equal(two.arrays[name], a.arrays[name])
    # The lowering must actually engage, and pay for itself.
    assert a.net.onesided_ops > 0
    assert a.messages < two.messages


@pytest.mark.parametrize("seed", [0, 7, 20260809])
def test_onesided_chaos_same_seed_identical(seed):
    plan = FaultPlan.uniform(seed=seed, drop=0.08, dup=0.08,
                             reorder=0.08)
    a = _run_once("jacobi", "base", plane="onesided", faults=plan)
    b = _run_once("jacobi", "base", plane="onesided", faults=plan)
    assert a.time == b.time
    assert a.stats == b.stats
    assert a.net.summary() == b.net.summary()
    assert a.net.retransmits == b.net.retransmits
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])

    # And the faulted one-sided run must still compute the fault-free
    # two-sided answer: exactly-once one-sided ops on a lossy fabric.
    clean = _run_once("jacobi", "base")
    for name in clean.arrays:
        assert np.array_equal(clean.arrays[name], a.arrays[name])
    assert a.net.faults_injected > 0
