"""Node absence: crash, drain and join as policies over one
custody/re-entry core, plus the heartbeat failure detector.

See :mod:`repro.absence.manager` for the lifecycle, the custody record
and the policy table, :mod:`repro.absence.detector` for suspicion,
eviction and re-admission, and ``docs/robustness.md`` for the protocol.
What a run schedules is plain data in :mod:`repro.faults.plan`: one
:class:`~repro.faults.Absence` per event, whose ``policy`` names its
row here, and the detector's :class:`~repro.faults.HeartbeatConfig`.
"""

from repro.absence.manager import AbsenceManager, elect_steward

__all__ = ["AbsenceManager", "elect_steward"]
