"""Cost-model parameters, calibrated to the paper's SP/2 measurements.

Section 5 of the paper reports three microbenchmark numbers for the 8-node
IBM SP/2 running AIX 3.2.5 with user-space MPL communication:

* minimum roundtrip for the smallest message, including an interrupt on the
  receiver: **365 us**;
* minimum time to acquire a free lock: **427 us**;
* minimum time for an 8-processor barrier: **893 us**;
* page faults and memory-protection operations take time linear in the page
  number and the number of pages in use, varying between **18 and 800 us**
  with 2000 pages in use.

The defaults below reproduce those numbers to within 1 % (the header
bytes every message carries add ~1 us per wire hop; ``python -m repro
micro`` prints and checks them).  The decomposition into send overhead,
wire latency, interrupt cost etc. is our choice — the paper only reports
the totals — but every component is an explicit knob, so sensitivity
studies are easy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ReproError

#: Fields that must be strictly positive (a zero would divide by zero
#: or make the cluster degenerate).
_POSITIVE_FIELDS = ("nprocs", "page_size", "bandwidth")


@dataclass(frozen=True)
class MachineConfig:
    """Timing and sizing parameters of the simulated cluster.

    All times are in microseconds, sizes in bytes.  Every field is
    validated at construction: negative costs/latencies, a zero page
    size or zero bandwidth raise a :class:`~repro.errors.ReproError`
    immediately instead of corrupting a simulation half-way through.
    """

    nprocs: int = 8
    page_size: int = 4096

    # --- messaging -----------------------------------------------------
    #: CPU time on the sender per message (copy + MPL call).
    send_overhead: float = 60.0
    #: CPU time on the receiver for a message it is waiting for.
    recv_overhead: float = 60.0
    #: Extra receiver CPU time when delivery raises an interrupt
    #: (unsolicited requests; TreadMarks needs interrupts enabled).
    interrupt_cost: float = 60.0
    #: One-way switch latency.
    wire_latency: float = 45.0
    #: Wire bandwidth (bytes per microsecond); SP/2 user-space MPL.
    bandwidth: float = 35.0
    #: Protocol header bytes added to every message.
    header_bytes: int = 32

    # --- one-sided data plane (RDMA-style; exercised only when the
    # run is built with data_plane="onesided") ---------------------------
    #: Initiator CPU per posted batch: building the work-queue entries
    #: plus the doorbell write.  Far below ``send_overhead`` — no kernel
    #: crossing, no copy.
    rdma_post_cost: float = 5.0
    #: Destination **NIC** service time per one-sided op.  No CPU is
    #: stolen from the destination process; this is pure NIC latency.
    rdma_op_service: float = 1.0
    #: Wire descriptor bytes per op inside a batch frame.
    rdma_op_bytes: int = 16
    #: Initiator CPU to reap a completion from the completion queue.
    rdma_poll_cost: float = 2.0

    # --- request servicing ---------------------------------------------
    #: Handler CPU for a generic small request (e.g. a diff request with
    #: nothing to compute).  Calibrated so that the minimum roundtrip is
    #: send + wire + (interrupt + service + send) + wire + recv = 365 us.
    request_service: float = 35.0
    #: Handler CPU for a lock request at the manager/holder.  Calibrated so
    #: that acquiring a free remote lock costs 427 us.
    lock_service: float = 97.0
    #: Total per-arrival CPU stolen at the barrier master (the SP/2 batches
    #: barrier arrivals, so this is below a full interrupt).  Calibrated so
    #: that an 8-processor barrier costs ~893 us.
    barrier_arrival_service: float = 37.5
    #: Re-acquiring a lock this processor released last (token cached).
    local_lock_cost: float = 5.0
    #: Marginal sender cost per extra destination when the same payload is
    #: broadcast (pipelined MPL sends), vs. a full ``send_overhead`` each.
    bcast_extra_per_dest: float = 5.0

    # --- virtual memory ------------------------------------------------
    #: Base cost of a page fault or mprotect call.
    prot_base: float = 18.0
    #: Additional cost per page index: under AIX 3.2.5 these operations are
    #: linear in the page number, reaching ~800 us at 2000 pages in use.
    prot_slope: float = 0.391
    #: Marginal cost per extra page when one mprotect call covers a
    #: contiguous run of pages (Validate sections, interval flushes).
    prot_per_page: float = 0.3

    # --- consistency machinery ------------------------------------------
    #: Copying a page to create a twin.
    twin_cost: float = 30.0
    #: Fixed cost of creating one diff (setup + RLE encode).
    diff_create_base: float = 30.0
    #: Per-byte cost of scanning twin vs. page during diff creation.
    diff_create_per_byte: float = 0.008
    #: Fixed cost of applying one diff.
    diff_apply_base: float = 10.0
    #: Per-byte cost of applying diff payload.
    diff_apply_per_byte: float = 0.01
    #: CPU cost of intersecting one section pair / scanning the page list
    #: when servicing a Fetch_diffs_w_sync at a barrier (the "going through
    #: a large page list" overhead of Section 3.3), per page examined.
    sync_merge_scan_per_page: float = 1.5

    # --- validation ------------------------------------------------------

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ReproError(
                    f"MachineConfig.{f.name} must be a number, got "
                    f"{value!r}")
            if f.name in _POSITIVE_FIELDS:
                if value <= 0:
                    raise ReproError(
                        f"MachineConfig.{f.name} must be > 0, got "
                        f"{value!r}")
            elif value < 0:
                raise ReproError(
                    f"MachineConfig.{f.name} must be >= 0, got "
                    f"{value!r} (negative costs/latencies would let "
                    f"simulated time run backwards)")

    # --- derived helpers -------------------------------------------------

    def protect_cost(self, page_index: int) -> float:
        """Cost of one mprotect/page-fault on ``page_index``."""
        return self.prot_base + self.prot_slope * page_index

    def diff_create_cost(self, scanned_bytes: int) -> float:
        return self.diff_create_base + self.diff_create_per_byte * scanned_bytes

    def diff_apply_cost(self, payload_bytes: int) -> float:
        return self.diff_apply_base + self.diff_apply_per_byte * payload_bytes

    def wire_time(self, payload_bytes: int) -> float:
        """Time on the wire for a message carrying ``payload_bytes``."""
        return (self.wire_latency
                + (payload_bytes + self.header_bytes) / self.bandwidth)

    def with_nprocs(self, nprocs: int) -> "MachineConfig":
        return replace(self, nprocs=nprocs)


#: The configuration used throughout the paper reproduction.
SP2 = MachineConfig()
