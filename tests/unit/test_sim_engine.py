"""Unit tests for the discrete-event engine."""

import gc
import hashlib
import heapq
import json
import os
import threading
import traceback
import weakref

import pytest

import repro.sim.engine as engine_module
from repro.errors import SimulationDeadlock, SimulationError
from repro.harness.spec import RunSpec, run
from repro.sim import Engine, ProcessState


def test_single_process_advances_clock():
    engine = Engine()
    times = []

    def main(proc):
        proc.advance(10.0)
        times.append(engine.now)
        proc.advance(5.5)
        times.append(engine.now)

    engine.add_process("p0", main)
    engine.run()
    assert times == [10.0, 15.5]
    assert engine.now == 15.5


def test_processes_run_concurrently_in_virtual_time():
    engine = Engine()
    log = []

    def worker(delay):
        def main(proc):
            proc.advance(delay)
            log.append((engine.now, proc.name))
        return main

    engine.add_process("a", worker(30.0))
    engine.add_process("b", worker(10.0))
    engine.add_process("c", worker(20.0))
    engine.run()
    assert log == [(10.0, "b"), (20.0, "c"), (30.0, "a")]
    assert engine.now == 30.0


def test_zero_advance_does_not_block():
    engine = Engine()

    def main(proc):
        proc.advance(0.0)
        proc.advance(0.0)

    engine.add_process("p0", main)
    engine.run()
    assert engine.now == 0.0


def test_negative_advance_rejected():
    engine = Engine()
    caught = []

    def main(proc):
        try:
            proc.advance(-1.0)
        except SimulationError as exc:
            caught.append(exc)

    engine.add_process("p0", main)
    engine.run()
    assert len(caught) == 1


def test_wait_wake_roundtrip():
    engine = Engine()
    log = []

    waiter_proc = {}

    def waiter(proc):
        waiter_proc["p"] = proc
        proc.wait()
        log.append(("woke", engine.now))

    def waker(proc):
        proc.advance(42.0)
        waiter_proc["p"].wake()

    engine.add_process("waiter", waiter)
    engine.add_process("waker", waker)
    engine.run()
    assert log == [("woke", 42.0)]


def test_wake_before_wait_is_remembered():
    engine = Engine()
    log = []
    procs = {}

    def target(proc):
        procs["t"] = proc
        proc.advance(20.0)   # wake arrives while advancing
        proc.wait()          # must not block forever
        log.append(engine.now)

    def poker(proc):
        proc.advance(5.0)
        procs["t"].wake()

    engine.add_process("target", target)
    engine.add_process("poker", poker)
    engine.run()
    assert log == [20.0]


def test_steal_cpu_postpones_advance():
    engine = Engine()
    log = []
    procs = {}

    def victim(proc):
        procs["v"] = proc
        proc.advance(100.0)
        log.append(engine.now)

    def thief(proc):
        proc.advance(10.0)
        procs["v"].steal_cpu(25.0, "cpu.request")

    engine.add_process("victim", victim)
    engine.add_process("thief", thief)
    engine.run()
    assert log == [125.0]


def test_steal_cpu_delays_wake_from_wait():
    engine = Engine()
    log = []
    procs = {}

    def victim(proc):
        procs["v"] = proc
        proc.wait()
        log.append(engine.now)

    def thief(proc):
        proc.advance(10.0)
        procs["v"].steal_cpu(30.0, "cpu.request")   # busy until 40
        procs["v"].wake()            # resumes at 40, not 10
    engine.add_process("victim", victim)
    engine.add_process("thief", thief)
    engine.run()
    assert log == [40.0]


def test_deadlock_detection():
    engine = Engine()

    def main(proc):
        proc.wait()

    engine.add_process("stuck", main)
    with pytest.raises(SimulationDeadlock):
        engine.run()


def test_process_exception_propagates():
    engine = Engine()

    def main(proc):
        proc.advance(1.0)
        raise ValueError("boom")

    engine.add_process("bad", main)
    with pytest.raises(SimulationError) as exc_info:
        engine.run()
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_call_after_runs_on_engine_thread():
    engine = Engine()
    log = []

    def main(proc):
        proc.advance(10.0)

    engine.add_process("p0", main)
    engine.call_after(5.0, lambda: log.append(engine.now))
    engine.run()
    assert log == [5.0]


def test_result_captured():
    engine = Engine()

    def main(proc):
        proc.advance(1.0)
        return "done"

    proc = engine.add_process("p0", main)
    engine.run()
    assert proc.result == "done"
    assert proc.state is ProcessState.DONE


def test_deterministic_ordering_same_time():
    """Same-time completions run in a deterministic (repeatable) order."""

    def run_once():
        engine = Engine()
        order = []

        def worker(name):
            def main(proc):
                proc.advance(10.0)
                order.append((name, engine.now))
            return main

        for name in ("a", "b", "c", "d"):
            engine.add_process(name, worker(name))
        engine.run()
        return order

    first = run_once()
    second = run_once()
    assert first == second
    assert {n for n, _ in first} == {"a", "b", "c", "d"}
    assert all(t == 10.0 for _, t in first)


# ----------------------------------------------------------------------
# The dispatch loop runs on whichever thread blocks.
# ----------------------------------------------------------------------

class LoggingHeap:
    """Stands in for the engine module's ``heapq``: logs every pop."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.log = []

    def heappop(self, queue):
        when, seq, action = item = heapq.heappop(queue)
        owner = getattr(action, "__self__", None)
        self.log.append((when, seq, f"{owner.name}.{action.__name__}"
                         if owner is not None else "timer"))
        return item


def test_ring_event_log_is_pinned(monkeypatch):
    """Every event a 4-process ring pops, as ``(time, seq, action)``:
    the list the engine produced before the loop moved onto the blocking
    threads.  Re-arms (4.25 -> 4.75), same-time ties (18.0) and events
    popped out of scheduling order (seq 8 before 7) are all in it."""
    engine = Engine()
    procs = []

    def main(proc):
        nxt = procs[(proc.pid + 1) % 4]
        for r in range(2):
            if proc.pid or r:
                proc.wait()
            proc.advance(1.5 + proc.pid)
            nxt.steal_cpu(0.25, "cpu.request")
            nxt.wake()
            proc.advance(3.0)       # overlaps the next one's turn

    for i in range(4):
        procs.append(engine.add_process(f"p{i}", main))
    engine.call_at(2.0, lambda: procs[1].steal_cpu(0.5, "cpu.request"))
    heap = LoggingHeap()
    monkeypatch.setattr(engine_module, "heapq", heap)
    engine.run()
    assert engine.now == 29.25
    assert heap.log == [
        (0.0, 1, "p0._switch_in"), (0.0, 2, "p1._switch_in"),
        (0.0, 3, "p2._switch_in"), (0.0, 4, "p3._switch_in"),
        (1.5, 5, "p0._advance_wake"), (1.75, 6, "p1._wait_wake"),
        (2.0, 0, "timer"), (4.25, 8, "p1._advance_wake"),
        (4.5, 7, "p0._advance_wake"), (4.75, 9, "p1._advance_wake"),
        (5.0, 10, "p2._wait_wake"), (7.75, 11, "p1._advance_wake"),
        (8.5, 12, "p2._advance_wake"), (8.75, 13, "p3._wait_wake"),
        (11.5, 14, "p2._advance_wake"), (13.25, 15, "p3._advance_wake"),
        (13.5, 16, "p0._wait_wake"), (15.25, 18, "p1._wait_wake"),
        (16.25, 17, "p3._advance_wake"), (17.75, 20, "p1._advance_wake"),
        (18.0, 19, "p0._advance_wake"), (18.0, 21, "p2._wait_wake"),
        (20.75, 22, "p1._advance_wake"), (21.5, 23, "p2._advance_wake"),
        (21.75, 24, "p3._wait_wake"), (24.5, 25, "p2._advance_wake"),
        (26.25, 26, "p3._advance_wake")]


def test_handler_exception_on_a_process_thread_reaches_run():
    engine = Engine()
    seen = []

    def handler():
        seen.append(threading.current_thread().name)
        raise KeyError("boom")

    engine.add_process("p0", lambda proc: proc.wait())
    engine.call_at(5.0, handler)
    with pytest.raises(KeyError, match="boom") as exc_info:
        engine.run()
    assert seen == ["sim-p0"]       # p0 blocked, so p0's thread dispatched
    frames = [f.name for f in
              traceback.extract_tb(exc_info.value.__traceback__)]
    assert "run" in frames and frames[-1] == "handler"


def test_handler_during_own_advance_sees_no_current_process():
    engine = Engine()
    seen = []

    def main(proc):
        proc.advance(10.0)
        seen.append(engine.current)

    proc = engine.add_process("p0", main)
    engine.call_at(5.0, lambda: seen.append(
        (threading.current_thread().name, engine.current, proc.state)))
    engine.run()
    assert seen == [("sim-p0", None, ProcessState.ADVANCING), proc]


class SpyLock:
    """Wraps a process's lock: who touched it, from which thread."""

    def __init__(self, proc, log):
        self.lock, self.name, self.log = proc._plock, proc.name, log

    def acquire(self):
        self.log.append(("acquire", self.name,
                         threading.current_thread().name))
        return self.lock.acquire()

    def release(self):
        self.log.append(("release", self.name,
                         threading.current_thread().name))
        self.lock.release()


def test_own_wake_resumes_without_a_thread_switch():
    engine = Engine()
    log = []

    def main(proc):
        proc.advance(10.0)          # p1 runs meanwhile
        log.append("second advance")
        proc.advance(5.0)           # only a timer precedes my own wake
        log.append("resumed")

    procs = [engine.add_process("p0", main),
             engine.add_process("p1", lambda proc: proc.advance(30.0))]
    engine.call_at(12.0, lambda: log.append("timer"))
    for proc in procs:
        proc._plock = SpyLock(proc, log)
    engine.run()
    start = log.index("second advance")
    assert log[start:start + 5] == [
        "second advance", "timer", ("release", "p0", "sim-p0"),
        ("acquire", "p0", "sim-p0"), "resumed"]


def test_handler_steal_rearms_an_advancing_process():
    engine = Engine()
    log = []

    def main(proc):
        proc.advance(100.0)
        log.append(engine.now)

    proc = engine.add_process("p0", main)
    engine.call_at(10.0, lambda: proc.steal_cpu(25.0, "cpu.request"))
    engine.call_at(100.0, lambda: log.append((proc.state, proc.wake_time)))
    engine.run()
    assert log == [(ProcessState.ADVANCING, 125.0), 125.0]


def test_failed_and_deadlocked_runs_leave_no_threads():
    class Token:
        pass

    tokens = []

    def stuck(proc):
        token = Token()
        tokens.append(weakref.ref(token))
        proc.wait()

    def stubborn(proc):
        token = Token()
        tokens.append(weakref.ref(token))
        try:
            proc.wait()
        finally:
            proc.wait()     # blocking while unwinding: cancelled again

    def bad(proc):
        proc.advance(1.0)
        raise ValueError("boom")

    baseline = threading.active_count()
    for mains, error in (((stuck, stuck), SimulationDeadlock),
                         ((stuck, bad), SimulationError),
                         ((stubborn, stuck), SimulationDeadlock)):
        engine = Engine()
        for i, main in enumerate(mains):
            engine.add_process(f"p{i}", main)
        with pytest.raises(error):
            engine.run()
        assert [p.state for p in engine.processes
                if p.alive] == [ProcessState.WAITING] * (
                    1 if bad in mains else 2)
    del engine
    gc.collect()
    assert threading.active_count() == baseline
    assert len(tokens) == 5 and all(ref() is None for ref in tokens)


# ----------------------------------------------------------------------
# Steps: a process blocks on a callable the dispatch loop runs instead
# of resuming its thread; no event moves.
# ----------------------------------------------------------------------

class PoppedHeap:
    """Stands in for the engine module's ``heapq``: logs ``(time, seq)``
    of every pop."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.log = []

    def heappop(self, queue):
        item = heapq.heappop(queue)
        self.log.append(item[:2])
        return item


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: Traced ``tiny`` runs on 4 processors, ``base``, 1 KB pages, generated
#: before sends and receives ran as steps: events popped, sha256 of the
#: popped ``(time, seq)`` list, sha256 of the telemetry events (in
#: emission order) and ``outcome.time``.  Then sha256 of the spans,
#: generated when every CPU charge became a span on the interval the
#: engine assigns it (the other four did not move).
PINNED_RUNS = {
    "gauss": (23103, "c832366691938c27853ad8dc3e23cf1a"
                     "95bc614cacb87ce7520c00c9970d7580",
              "89791dd9d5b9be8edb488ead0206c2b5"
              "eca9c4fc63af2190b6c689d196336227", 637128.0735428467,
              "696575a2b32eba369cd2229fff9a72af"
              "bf6a4f93f6bd711654de4c2f282d5175"),
    "is": (1200, "2dcddd2a7727ddcc48ec609caf59d1fd"
                 "e7383c2965bba3349221d6b398f5ebe2",
           "0f758eefee991ab49768b89a6582d70d"
           "9ee8d11a8a8e68ca5d893079038de634", 24365.108571428547,
           "94e318869c9628d863b4a83f8b9c0464"
           "dcc9892bf167565a11f7f0cbeace6467"),
}


@pytest.mark.parametrize("app", sorted(PINNED_RUNS))
def test_event_order_telemetry_and_time_are_pinned(app, monkeypatch):
    heap = PoppedHeap()
    monkeypatch.setattr(engine_module, "heapq", heap)
    out = run(RunSpec(app=app, dataset="tiny", nprocs=4, opt="base",
                      page_size=1024, telemetry=True))
    tel = out.telemetry
    events = [json.dumps(ev.as_dict(), sort_keys=True)
              for ev in tel.bus.events]
    spans = [json.dumps(dict(ts=s.t0, dur=s.dur, **s.as_dict()),
                        sort_keys=True) for s in tel.spans.spans]
    assert (len(heap.log), _sha(repr(heap.log)), _sha("\n".join(events)),
            out.time, _sha("\n".join(spans))) == PINNED_RUNS[app]


def test_a_step_runs_in_the_loop_and_resumes_the_thread_once(parks):
    engine = Engine()
    log = []

    def main(proc):
        left = [3]

        def step():         # three 10 us charges, each overtaken by a timer
            log.append((engine.now, threading.current_thread().name,
                        engine.current))
            if not left[0]:
                return True
            left[0] -= 1
            return proc._charge(10.0, "compute") or ProcessState.ADVANCING

        proc.block_on(step)
        log.append(engine.now)

    proc = engine.add_process("p0", main)
    for t in (5.0, 15.0, 25.0):
        engine.call_at(t, lambda: None)
    engine.run()
    assert log == [(0.0, "sim-p0", proc), (10.0, "sim-p0", None),
                   (20.0, "sim-p0", None), (30.0, "sim-p0", None), 30.0]
    assert parks == {"p0": 2}       # its start, and the one resume


def test_a_step_error_is_raised_on_the_thread():
    def main(proc):
        def step():
            if engine.current is None:      # in the loop
                raise KeyError("boom")
            return proc._charge(10.0, "compute") or ProcessState.ADVANCING
        proc.block_on(step)

    engine = Engine()
    engine.add_process("p0", main)
    engine.call_at(5.0, lambda: None)
    with pytest.raises(SimulationError, match="'p0' failed at t=10.0") \
            as exc_info:
        engine.run()
    assert isinstance(exc_info.value.__cause__, KeyError)


# ----------------------------------------------------------------------
# SCHED_BATCH: a woken thread does not preempt its waker.
# ----------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                    reason="SCHED_BATCH is Linux-only")
def test_process_threads_run_under_sched_batch():
    seen = []
    engine = Engine()
    engine.add_process("p0", lambda proc: seen.append(
        os.sched_getscheduler(0)))
    before = os.sched_getscheduler(0)
    engine.run()
    assert seen == [os.SCHED_BATCH]
    assert os.sched_getscheduler(0) == before       # the caller's own


def test_a_refused_sched_batch_is_skipped(monkeypatch):
    def refuse(*args):
        raise PermissionError("not permitted")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    log = []
    engine = Engine()
    engine.add_process("p0", lambda proc: (proc.advance(5.0),
                                           log.append(engine.now)))
    engine.run()
    assert log == [5.0]
