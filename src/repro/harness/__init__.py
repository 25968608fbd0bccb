"""Experiment harness: run modes, experiment drivers, report tables."""

from repro.harness.outcome import RunOutcome
from repro.harness.runner import layout_for, run_seq
from repro.harness.spec import MODES, RunSpec, run
from repro.harness.modes import (OPT_LEVELS, SIZING, applicable_levels,
                                 run_matrix)

__all__ = ["run_seq", "layout_for", "OPT_LEVELS", "SIZING",
           "applicable_levels", "run_matrix", "MODES", "RunSpec", "run",
           "RunOutcome"]
