"""Experiment harness: run modes, experiment drivers, report tables."""

from repro.harness.outcome import (DsmOutcome, MpOutcome, RunOutcome,
                                   SeqOutcome, XhpfOutcome)
from repro.harness.runner import (run_dsm, run_mp, run_seq, run_xhpf,
                                  layout_for)
from repro.harness.spec import MODES, RunSpec, run
from repro.harness.modes import (Mode, OPT_LEVELS, SIZING,
                                 applicable_levels, run_matrix)

__all__ = ["run_dsm", "run_mp", "run_seq", "run_xhpf", "layout_for",
           "Mode", "OPT_LEVELS", "SIZING", "applicable_levels",
           "run_matrix", "MODES", "RunSpec", "run",
           "RunOutcome", "SeqOutcome", "DsmOutcome", "MpOutcome",
           "XhpfOutcome"]
