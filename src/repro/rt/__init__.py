"""Augmented run-time interface (paper Section 3).

The compiler communicates data-access knowledge to the DSM through two
primary entry points, implemented as methods on
:class:`repro.tm.node.TmNode`:

* ``node.validate(sections, access_type, ...)`` — fetch/aggregate diffs
  for the sections and set page permissions according to the declared
  access type, bypassing (READ/WRITE/READ&WRITE) or disabling
  (WRITE_ALL/READ&WRITE_ALL) the page-fault-driven consistency machinery;
* ``node.validate_w_sync(sections, access_type)`` — like ``validate`` but
  piggy-backs the diff request on the next synchronization operation;
* ``node.push(read_sections, write_sections)`` — replace a barrier with
  point-to-point exchanges of exactly the written-then-read intersections.

This package holds the shared vocabulary (:class:`AccessType`) and the
Figure 3 facade over those methods (:class:`AugmentedRuntime`).
"""

from repro.rt.access import AccessType
from repro.rt.interface import (AugmentedRuntime, READ, READ_WRITE,
                                READ_WRITE_ALL, WRITE, WRITE_ALL)

__all__ = ["AccessType", "AugmentedRuntime", "READ", "READ_WRITE",
           "READ_WRITE_ALL", "WRITE", "WRITE_ALL"]
