"""Threads-as-coroutines discrete-event simulation engine.

Every simulated processor is a :class:`Process` backed by a Python thread.
The :class:`Engine` owns a virtual clock (in microseconds) and an event
queue.  One thread runs at a time and events are ordered by ``(time,
sequence)``, so simulations are deterministic.

There is no engine thread: the one dispatch loop (:meth:`Engine._dispatch`)
is run by whichever thread just stopped running simulated code.  A process
that blocks pops events on its own thread until one names the process to
resume; if that is itself it just returns, else it releases the other's
lock and sleeps on its own.  The caller of :meth:`Engine.run` dispatches
until the first hand-over, then sleeps until the run ends.

Process code blocks in :meth:`Process.advance` (consume CPU time; the
wake-up is postponed by whatever interrupt handlers steal meanwhile) and
:meth:`Process.wait` (until a mailbox, lock or barrier calls
:meth:`Process.wake`).  Interrupt handlers (see :mod:`repro.net.network`)
run *in the dispatch loop* at message-delivery time, with
:attr:`Engine.current` ``None``; they must never block.  CPU time they
consume is charged to the interrupted process by :meth:`Process.steal_cpu`.
"""

from __future__ import annotations

import enum
import heapq
import os
import threading
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationDeadlock, SimulationError


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    NEW = "new"
    RUNNING = "running"
    ADVANCING = "advancing"
    WAITING = "waiting"
    DONE = "done"
    FAILED = "failed"


class _Cancelled(BaseException):
    """Unwinds a process thread the run ended without (see ``Engine.run``)."""


class Process:
    """A simulated processor running ``main`` under engine control.

    Application code running inside ``main`` may call :meth:`advance` and
    :meth:`wait`; everything else (message delivery, interrupts) is driven
    by the dispatch loop between those blocking points.
    """

    def __init__(self, engine: "Engine", pid: int, name: str,
                 main: Callable[["Process"], None]) -> None:
        self.engine = engine
        self.pid = pid
        self.name = name
        self.state = ProcessState.NEW
        #: Virtual time until which this processor's CPU is busy servicing
        #: interrupts; resumptions from WAITING are delayed past it.
        self.busy_until = 0.0
        #: Target wake-up time while in state ADVANCING (lazily rescheduled).
        self.wake_time = 0.0
        #: What this process says it is blocked on (set by recv/barrier/
        #: lock waits) for the deadlock diagnostic.  Purely informational.
        self.waiting_on: Optional[str] = None
        self._wake_pending = False
        self._main = main
        # What this thread sleeps on while another runs: a raw lock (much
        # cheaper than a semaphore), held except while being handed over.
        self._plock = threading.Lock()
        self._plock.acquire()
        self.result: object = None
        self._thread = threading.Thread(
            target=self._thread_main, name=f"sim-{name}", daemon=True)

    # --- thread plumbing ---------------------------------------------

    def _thread_main(self) -> None:
        engine = self.engine
        try:
            self._park()
            self.result = self._main(self)
            self.state = ProcessState.DONE
        except BaseException as exc:
            if not engine._reaping:     # else unwinding: the run is over
                self.state = ProcessState.FAILED
                engine._failure = SimulationError(
                    f"process {self.name!r} failed at t={engine.now:.1f}")
                engine._failure.__cause__ = exc
                engine._elock.release()
            return
        engine._dispatch()

    def _park(self) -> None:
        """Sleep until a dispatch loop names this process."""
        self._plock.acquire()
        engine = self.engine
        if engine._reaping:
            raise _Cancelled()
        if engine.profiler is not None:
            engine.profiler.resume()

    def _switch_in(self) -> None:
        """Dispatch loop: name this process as the one to resume."""
        self.state = ProcessState.RUNNING
        self.engine.current = self

    def _block(self, state: ProcessState) -> None:
        """Dispatch on this thread until an action names the process to
        resume; sleep unless that is this one (its lock is then free)."""
        if self.engine._reaping:    # a blocking call made while unwinding
            raise _Cancelled()
        self.state = state
        self.engine._dispatch()
        self._park()

    # --- blocking API used by simulated code -------------------------

    def advance(self, dt: float) -> None:
        """Consume ``dt`` microseconds of CPU time on this processor."""
        if dt < 0:
            raise SimulationError(f"negative advance: {dt}")
        engine = self.engine
        start = max(engine.now, self.busy_until)
        self.wake_time = start + dt
        self.busy_until = self.wake_time
        if self.wake_time <= engine.now:
            return
        # Fast path: if no queued event precedes our wake-up, the loop
        # would pop our wake event next anyway — skip scheduling it and
        # move the clock directly.
        queue = engine._queue
        if not queue or queue[0][0] >= self.wake_time:
            engine.now = self.wake_time
            return
        engine.call_at(self.wake_time, self._advance_wake)
        self._block(ProcessState.ADVANCING)

    def _advance_wake(self) -> None:
        if self.state is not ProcessState.ADVANCING:
            return
        if self.engine.now < self.wake_time:
            # An interrupt postponed us; re-arm at the new wake time.
            self.engine.call_at(self.wake_time, self._advance_wake)
            return
        self._switch_in()

    def wait(self) -> None:
        """Block until some component calls :meth:`wake`.

        Callers are responsible for re-checking their condition in a loop:
        a wake-up does not carry a payload.
        """
        if self._wake_pending:
            self._wake_pending = False
            return
        self._block(ProcessState.WAITING)

    def wake(self) -> None:
        """Schedule this process to resume from :meth:`wait`.

        The resumption happens no earlier than ``busy_until`` so that CPU
        time stolen by interrupt handlers delays progress.
        """
        engine = self.engine
        if self.state is ProcessState.WAITING:
            when = max(engine.now, self.busy_until)
            engine.call_at(when, self._wait_wake)
        else:
            self._wake_pending = True

    def _wait_wake(self) -> None:
        if self.state is not ProcessState.WAITING:
            return
        if self.engine.now < self.busy_until:
            self.engine.call_at(self.busy_until, self._wait_wake)
            return
        self._switch_in()

    def steal_cpu(self, cost: float) -> None:
        """Charge ``cost`` microseconds of interrupt-service CPU time.

        Called from handlers running in the dispatch loop while this
        process is blocked.  If the process is mid-``advance`` the wake-up
        moves later; if it is waiting, ``busy_until`` moves later.
        """
        if cost < 0:
            raise SimulationError(f"negative steal_cpu: {cost}")
        now = self.engine.now
        self.busy_until = max(self.busy_until, now) + cost
        if self.state is ProcessState.ADVANCING:
            self.wake_time = max(self.wake_time, now) + cost

    @property
    def alive(self) -> bool:
        return self.state not in (ProcessState.DONE, ProcessState.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} pid={self.pid} {self.state.value}>"


class Engine:
    """Discrete-event engine: virtual clock plus event queue."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._processes: List[Process] = []
        #: What the caller of :meth:`run` sleeps on until the run ends.
        self._elock = threading.Lock()
        self._elock.acquire()
        #: The process currently executing; ``None`` inside the dispatch
        #: loop, until a wake action names the next (``_switch_in``).
        self.current: Optional[Process] = None
        #: Why the run ended early; re-raised by :meth:`run`.
        self._failure: Optional[BaseException] = None
        self._reaping = False
        self._started = False
        #: Optional :class:`repro.telemetry.Telemetry`; set by
        #: ``Telemetry.bind_engine``.  Lifecycle events only — per-event
        #: hooks would be far too hot for the scheduling core.
        self.telemetry = None
        #: Optional :class:`repro.observe.WallProfiler` / ``RunMonitor``
        #: (set by their ``bind_engine``): hooks on the dispatch loop
        #: that read the host clock and never touch simulated state.
        self.profiler = None
        self.monitor = None
        #: Callables returning extra diagnostic lines for the deadlock
        #: dump (e.g. the network registers its mailbox/transport state).
        self._debug_sources: List[Callable[[], List[str]]] = []

    def add_process(self, name: str,
                    main: Callable[[Process], None]) -> Process:
        """Register a new simulated processor running ``main``."""
        if self._started:
            raise SimulationError("cannot add processes after run() started")
        proc = Process(self, len(self._processes), name, main)
        self._processes.append(proc)
        return proc

    @property
    def processes(self) -> List[Process]:
        return list(self._processes)

    @property
    def any_alive(self) -> bool:
        """Whether any process is still running or blocked: what
        self-rescheduling timers (e.g. membership heartbeats) test to
        stop, so the event queue can drain and :meth:`run` return."""
        return any(p.alive for p in self._processes)

    def call_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run in the dispatch loop at time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"event scheduled in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, self._seq, action))
        self._seq += 1

    def call_after(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` microseconds from now."""
        self.call_at(self.now + delay, action)

    def add_debug_source(self, fn: Callable[[], List[str]]) -> None:
        """Register a provider of extra deadlock-diagnostic lines."""
        self._debug_sources.append(fn)

    def run(self) -> None:
        """Run until every process finishes.

        Raises :class:`SimulationDeadlock` if the event queue drains while
        some process is still blocked, :class:`SimulationError` (chaining
        the original exception) if any process raises, and whatever an
        action raised.  Pins itself to one CPU meanwhile and leaves no
        thread behind, however it ends.
        """
        if self._started:
            raise SimulationError("engine already ran")
        self._started = True
        tel = self.telemetry
        if tel is not None:
            for proc in self._processes:
                tel.event(proc.pid, "sim.proc_start", name=proc.name)
        for proc in self._processes:
            self.call_at(0.0, proc._switch_in)
        mask = _pin_thread()
        try:
            for proc in self._processes:
                proc._thread.start()
            t_start = perf_counter()
            self._dispatch()
            self._elock.acquire()       # sleep until the run ends
            if self._failure is not None:
                raise self._failure
            if self.profiler is not None:
                self.profiler.run_s += perf_counter() - t_start
        finally:
            # Wake each thread still parked (deadlock, failure elsewhere)
            # to unwind by _Cancelled; join one by one, so that whatever
            # its ``finally`` blocks do runs alone.
            self._reaping = True
            for proc in self._processes:
                if proc._thread.is_alive():
                    proc._plock.release()
                    proc._thread.join()
            if mask is not None:
                os.sched_setaffinity(0, mask)
        if self.monitor is not None:
            self.monitor.finish(self, self.monitor.events)
        if tel is not None:
            for proc in self._processes:
                tel.event(proc.pid, "sim.proc_done",
                          state=proc.state.value)
        blocked = [p for p in self._processes if p.alive]
        if blocked:
            raise SimulationDeadlock(self._deadlock_report(blocked))

    def _dispatch(self) -> None:
        """The one dispatch loop: pop, set ``now``, call the action.

        Run by whichever thread just stopped running simulated code (a
        blocked or finished process, or :meth:`run`) until an action
        names the process to resume, whose lock it releases: the caller's
        own if it woke itself (no thread switch then).  :meth:`run` is
        woken instead when the queue drains or an action raises.
        """
        queue, pop = self._queue, heapq.heappop
        prof, mon = self.profiler, self.monitor
        if prof is not None and self.current is not None:
            prof.block()        # a process's slice just ended
        self.current = None
        try:
            while queue:
                when, _, action = pop(queue)
                self.now = when
                if prof is None:
                    action()
                else:
                    prof.timed(action)
                if mon is not None:
                    mon.poll(self)
                if self.current is not None:
                    self.current._plock.release()
                    return
        except BaseException as exc:
            self._failure = exc
        self._elock.release()

    def _deadlock_report(self, blocked: List[Process]) -> str:
        """A lost message must be debuggable: name every blocked process,
        what it says it is waiting on, and (via the registered debug
        sources) any undelivered traffic still sitting in the system."""
        lines = [f"no events left at t={self.now:.1f} but "
                 f"{len(blocked)} of {len(self._processes)} processes "
                 "are blocked:"]
        for p in blocked:
            what = f" waiting on {p.waiting_on}" if p.waiting_on else ""
            lines.append(f"  {p.name} [{p.state.value}]{what}")
        extra: List[str] = []
        for fn in self._debug_sources:
            try:
                extra.extend(fn())
            except Exception as exc:  # pragma: no cover - diag only
                extra.append(f"(debug source failed: {exc!r})")
        if extra:
            lines.append("undelivered traffic:")
            lines.extend(f"  {l}" for l in extra)
        else:
            lines.append("no undelivered traffic recorded: the blocked "
                         "processes are waiting for messages that were "
                         "never sent")
        return "\n".join(lines)


def _pin_thread() -> Optional[set]:
    """Pin the calling thread, and so the threads it starts, to the CPU
    it is on now (field 39 of its ``stat``; not a fixed one, so that
    concurrent runs stay spread), else the lowest allowed.  Returns the
    mask to restore; ``None`` if nothing was done (no API, one CPU)."""
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            return None
        try:
            with open("/proc/thread-self/stat") as fh:
                cpu = int(fh.read().rpartition(")")[2].split()[36])
        except (OSError, ValueError, IndexError):
            cpu = -1
        os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})
    except (AttributeError, OSError):
        return None
    return allowed
