"""Elastic cluster membership plans: join, drain, silence, heartbeats.

See :mod:`repro.membership.plan` for the declarative plan types; the
runtime that realizes them (handoff protocol, custody services,
heartbeat failure detector) is :mod:`repro.absence`.
"""

from repro.membership.plan import (HeartbeatConfig, MembershipPlan,
                                   NodeDrain, NodeJoin, NodeSilence)

__all__ = [
    "HeartbeatConfig",
    "MembershipPlan",
    "NodeDrain",
    "NodeJoin",
    "NodeSilence",
]
