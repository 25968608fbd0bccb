"""Deterministic fault injection for the simulated cluster.

See ``docs/robustness.md`` for the fault model and the chaos workflow.
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import (POLICIES, Absence, FaultPlan,
                               HeartbeatConfig, LinkFaults, Partition,
                               plan_from_dict, plan_from_json)

__all__ = ["FaultPlan", "LinkFaults", "Partition", "Absence", "POLICIES",
           "HeartbeatConfig", "FaultInjector", "plan_from_dict",
           "plan_from_json"]
