"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency (e.g. deadlock)."""


class SimulationDeadlock(SimulationError):
    """All processes are blocked and no events remain."""


class ReceiveTimeout(SimulationError):
    """A blocking receive with ``timeout=`` expired before a match."""


class TransportError(SimulationError):
    """The reliable transport exhausted its retry budget on a channel."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (bad probability, window...)."""


class ProtocolError(ReproError):
    """The DSM protocol reached an invalid state."""


class WindowError(ProtocolError):
    """A one-sided operation targeted a window that is not registered
    at the destination, or a byte range outside the window's bounds —
    the RDMA equivalent of a wild pointer.  The message names the
    window key and the offending range."""


class MembershipError(ReproError):
    """A membership plan is malformed or a handoff reached a state the
    elastic-membership layer cannot re-shard (e.g. overlapping absence
    windows, a steward that is itself scheduled to crash)."""


class LayoutError(ReproError):
    """Invalid shared-memory layout request (overlap, overflow, bad shape)."""


class SectionError(ReproError):
    """Invalid regular-section operation."""


class CompileError(ReproError):
    """The compiler could not process the input program."""


class HpfError(CompileError):
    """The data-parallel (XHPF-like) lowering cannot handle the program."""


class InterpError(ReproError):
    """The IR interpreter encountered an invalid program at run time."""
