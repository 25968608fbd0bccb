"""Wall-clock performance observatory.

Everything else in this repository measures *simulated* microseconds;
this package measures how long the simulator itself takes on the host.
It is layered beside — never inside — the simulated-time telemetry:

* :class:`~repro.observe.profiler.WallProfiler` — cheap perf-counter
  scopes threaded through the engine, the tm backends, the network and
  the interpreter; reports events/sec, accesses/sec and per-subsystem
  wall-time attribution.
* :class:`~repro.observe.monitor.RunMonitor` — a live heartbeat for
  long runs (``--progress``): simulated-time rate, throughput, ETA.
* :mod:`repro.observe.htmlreport` — the self-contained HTML run report
  (``python -m repro report --html``).

The host-time *harness* is the ledger (``benchmarks/ledger/``): its
traced pass runs under a :class:`WallProfiler`, and its ``wall_s``,
``sim.events``, ``host_s.*`` and ``telemetry.overhead_pct`` rows are
the only recorded host-time numbers.

The observatory is provably side-effect-free with respect to simulated
results: it only ever reads ``time.perf_counter`` and increments its
own counters, so an observed run is bit-identical to an unobserved one
(asserted across every coherence backend in
``tests/integration/test_observe_determinism.py``).
"""

from repro.observe.monitor import RunMonitor
from repro.observe.profiler import WallProfiler

__all__ = ["WallProfiler", "RunMonitor"]
