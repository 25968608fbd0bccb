"""repro — An Integrated Compile-Time/Run-Time Software DSM System.

A complete Python reproduction of Dwarkadas, Cox & Zwaenepoel
(ASPLOS 1996): the TreadMarks lazy-release-consistency DSM, the
augmented run-time interface (Validate / Validate_w_sync / Push), the
regular-section-analysis compiler that drives it, XHPF-like and
hand-coded message-passing baselines, the paper's six applications, and
a harness regenerating every table and figure — all on a deterministic
discrete-event simulation of the paper's 8-node IBM SP/2.

Typical entry points::

    from repro import RunSpec, run
    out = run(RunSpec(app="jacobi", mode="dsm", nprocs=4,
                      opt="aggr", telemetry=True))
    out.telemetry.write_chrome_trace("trace.json")

or the mode-specific helpers::

    from repro import run_dsm, run_mp, run_seq, run_xhpf
    from repro.harness import experiments
"""

from repro.compiler import OptConfig, analyze_program, transform
from repro.harness import (RunOutcome, RunSpec, run, run_dsm, run_mp,
                           run_seq, run_xhpf)
from repro.machine import MachineConfig
from repro.memory import Section, SharedLayout
from repro.rt import AccessType
from repro.telemetry import (EventBus, SpanLog, Telemetry, chrome_trace,
                             events_jsonl, write_chrome_trace, write_jsonl)
from repro.tm import TmSystem

__version__ = "1.0.0"

__all__ = [
    "AccessType", "MachineConfig", "OptConfig", "Section", "SharedLayout",
    "TmSystem", "analyze_program", "transform", "__version__",
    "RunOutcome", "RunSpec", "run",
    "run_dsm", "run_mp", "run_seq", "run_xhpf",
    "Telemetry", "EventBus", "SpanLog",
    "chrome_trace", "events_jsonl", "write_chrome_trace", "write_jsonl",
]
