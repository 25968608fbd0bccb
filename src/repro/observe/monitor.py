"""Live run monitor: heartbeat progress for long simulations.

A :class:`RunMonitor` is polled by the engine's dispatch loop and reads
the host clock every ``2**mask_bits`` events; when at least
``interval_s`` host seconds have passed since the last beat it emits
one progress line — simulated time, events dispatched, events/sec and
the simulated-us-per-wall-second rate.

The monitor only *reads* engine state, so a monitored run stays
bit-identical to an unmonitored one.  Output goes to ``stream``
(default stderr, ``\\r``-overwritten); pass ``callback`` instead to
consume beats programmatically (used by the tests).
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Optional, TextIO


class RunMonitor:
    """Heartbeat reporting for one engine run."""

    def __init__(self, interval_s: float = 0.5,
                 stream: Optional[TextIO] = None,
                 callback: Optional[Callable[[dict], None]] = None,
                 mask_bits: int = 10) -> None:
        self.interval_s = interval_s
        self.stream = stream
        self.callback = callback
        #: The clock is read every ``2**mask_bits`` events only.
        self.mask = (1 << mask_bits) - 1
        #: Events the dispatch loop has polled for.
        self.events = 0
        self.beats = 0
        self._t0: Optional[float] = None
        self._last = 0.0
        self._wrote = False

    # ------------------------------------------------------------------

    def bind_engine(self, engine) -> "RunMonitor":
        engine.monitor = self
        return self

    def _out(self) -> TextIO:
        return self.stream if self.stream is not None else sys.stderr

    # ------------------------------------------------------------------
    # Called from the engine's dispatch loop.
    # ------------------------------------------------------------------

    def poll(self, engine) -> None:
        """Dispatch-loop hook, once per event."""
        n = self.events = self.events + 1
        if not (n & self.mask):
            self.maybe_tick(engine, n)

    def maybe_tick(self, engine, n_events: int) -> None:
        now = perf_counter()
        if self._t0 is None:
            self._t0 = now
            self._last = now
            return
        if now - self._last < self.interval_s:
            return
        self._last = now
        self.tick(engine, n_events, now)

    def tick(self, engine, n_events: int,
             now: Optional[float] = None) -> None:
        now = perf_counter() if now is None else now
        if self._t0 is None:
            self._t0 = now
        wall = max(now - self._t0, 1e-9)
        beat = {
            "sim_us": engine.now,
            "events": n_events,
            "wall_s": wall,
            "events_per_sec": n_events / wall,
            "sim_us_per_sec": engine.now / wall,
        }
        self.beats += 1
        if self.callback is not None:
            self.callback(beat)
        if self.callback is None or self.stream is not None:
            self._write(beat)

    def _write(self, beat: dict) -> None:
        line = (f"[observe] sim={beat['sim_us'] / 1e3:,.1f}ms  "
                f"events={beat['events']:,}  "
                f"{beat['events_per_sec']:,.0f} ev/s  "
                f"{beat['sim_us_per_sec']:,.0f} sim-us/s")
        out = self._out()
        out.write("\r" + line.ljust(78))
        out.flush()
        self._wrote = True

    def finish(self, engine, n_events: int) -> None:
        """Final beat at end of run (always emitted, with newline)."""
        self.tick(engine, n_events)
        if self._wrote:
            self._out().write("\n")
            self._out().flush()
