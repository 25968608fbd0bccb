"""The paper's Figure 3 interface, verbatim.

A thin facade over :class:`~repro.tm.node.TmNode` exposing the augmented
run-time entry points under the names and shapes of the paper's
Figure 3/4 pseudo-code, for readers following along with the paper::

    rt = AugmentedRuntime(node)
    rt.Validate(section, WRITE_ALL)
    rt.Validate_w_sync(section, READ)
    rt.Push(r_sections, w_sections)

Sections may be single :class:`~repro.memory.section.Section` objects or
lists.  ``Push`` takes the per-processor section arrays exactly as in
Figure 3: ``r_section[0..N-1]`` and ``w_section[0..N-1]``.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.memory.section import Section
from repro.rt.access import AccessType

#: Re-exported access-type constants with the paper's spelling.
READ = AccessType.READ
WRITE = AccessType.WRITE
READ_WRITE = AccessType.READ_WRITE
WRITE_ALL = AccessType.WRITE_ALL
READ_WRITE_ALL = AccessType.READ_WRITE_ALL

Sections = Union[Section, Sequence[Section]]


def _as_list(sections: Sections) -> List[Section]:
    if isinstance(sections, Section):
        return [sections]
    return list(sections)


class AugmentedRuntime:
    """Figure 3's ``Validate`` / ``Validate_w_sync`` / ``Push``."""

    def __init__(self, node) -> None:
        self.node = node

    # -- Figure 3 primary interface -------------------------------------

    def Validate(self, sections: Sections, access_type: AccessType,
                 asynchronous: bool = False) -> None:
        """Fetch diffs and set permissions per the declared access."""
        self.node.validate(_as_list(sections), access_type,
                           asynchronous=asynchronous)

    def Validate_w_sync(self, sections: Sections,
                        access_type: AccessType,
                        asynchronous: bool = False) -> None:
        """Like Validate, piggy-backing the fetch on the next sync op."""
        self.node.validate_w_sync(_as_list(sections), access_type,
                                  asynchronous=asynchronous)

    def Push(self, r_sections: Sequence[Sections],
             w_sections: Sequence[Sections]) -> None:
        """Replace a barrier: exchange written-then-read intersections.

        ``r_sections[i]`` / ``w_sections[i]`` are processor i's read and
        write sections, as in Figure 3's ``r_section[0..N-1]``.
        """
        reads = [_as_list(s) for s in r_sections]
        writes = [_as_list(s) for s in w_sections]
        self.node.push(reads, writes)

    # -- Figure 4 lower-level primitives ---------------------------------

    def Fetch_diffs(self, sections: Sections) -> dict:
        """Issue aggregated diff requests for the sections (async part).

        Returns the expectation handle to pass to :meth:`Apply_diffs`.
        """
        pages = sorted({p for s in _as_list(sections)
                        for p in self.node.layout.pages_of(s)
                        if not self.node.pages[p].valid})
        return self.node.coherence.begin_fetch(pages)

    def Apply_diffs(self, handle) -> None:
        """Wait for a Fetch_diffs' responses and apply them."""
        self.node.coherence.finish_fetch(handle)

    def Create_twins(self, sections: Sections) -> None:
        for s in _as_list(sections):
            for p in self.node.layout.pages_of(s):
                self.node._enable_with_twin(p)

    def Write_enable(self, sections: Sections) -> None:
        self.Create_twins(sections)

    def Write_protect(self, sections: Sections) -> None:
        pages = sorted({p for s in _as_list(sections)
                        for p in self.node.layout.pages_of(s)})
        protect = [p for p in pages if self.node.pages[p].write_enabled]
        for p in protect:
            self.node.pages[p].write_enabled = False
        self.node._charge_protect_run(protect)
