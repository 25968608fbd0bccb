"""Unit tests for the one-sided (RDMA-style) data plane.

Covers the window capability model (value / byte / word flavors,
guards, typed :class:`WindowError` on wild ops), the batched transport
(doorbell coalescing, one completion per sync batch), the accounting
doctrine (dedicated ``onesided_*`` counters, never ``messages``), and
the cost model charges.
"""

import pytest

from repro.errors import WindowError
from repro.machine import MachineConfig
from repro.net import Network, OneSidedPlane
from repro.net import onesided as ops
from repro.sim import Engine


def build(nprocs, mains, config=None):
    """Engine + network with the one-sided plane armed."""
    engine = Engine()
    config = config or MachineConfig(nprocs=nprocs)
    net = Network(engine, config, nprocs)
    net.onesided = OneSidedPlane(net)
    endpoints = {}
    for i, main in enumerate(mains):
        proc = engine.add_process(f"p{i}", lambda p, m=main: m(p, endpoints))
        endpoints[i] = net.attach(proc)
    return engine, net, endpoints


def idle(proc, eps):
    pass


# ----------------------------------------------------------------------
# Window flavors.
# ----------------------------------------------------------------------

def test_value_window_read():
    got = {}

    def reader(proc, eps):
        (got["res"],) = eps[0].net.onesided.post(0, 1,
                                                 [ops.read(("diff", 3))])

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("diff", 3),
                                     value={"page": 3}, nbytes=96)

    engine, net, _ = build(2, [reader, owner])
    engine.run()
    assert got["res"] == ("ok", {"page": 3}, 96)


def test_byte_window_ranged_read():
    image = bytes(range(256))
    got = {}

    def reader(proc, eps):
        plane = eps[0].net.onesided
        got["mid"], got["all"] = plane.post(
            0, 1, [ops.read(("image",), off=16, length=8),
                   ops.read(("image",))])

    def owner(proc, eps):
        eps[1].net.onesided.register(
            1, ("image",), nbytes=len(image),
            reader=lambda off, length: image[off:off + length])

    engine, _, _ = build(2, [reader, owner])
    engine.run()
    assert got["mid"] == ("ok", image[16:24], 8)
    assert got["all"] == ("ok", image, 256)


def test_word_window_cas_and_faa():
    got = {}

    def worker(proc, eps):
        plane = eps[0].net.onesided
        key = ("lock", 0)
        (got["cas_ok"],) = plane.post(0, 1, [ops.cas(key, "state", 0, 1)])
        (got["cas_lost"],) = plane.post(0, 1, [ops.cas(key, "state", 0, 1)])
        (got["faa0"],) = plane.post(0, 1, [ops.faa(key, "tickets", 5)])
        (got["faa1"],) = plane.post(0, 1, [ops.faa(key, "tickets", 2)])

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("lock", 0),
                                     words={"state": 0})

    engine, net, _ = build(2, [worker, owner])
    engine.run()
    assert got["cas_ok"] == ("cas", True, 0)
    assert got["cas_lost"] == ("cas", False, 1)  # found the held token
    assert got["faa0"] == ("faa", 0)             # missing word starts at 0
    assert got["faa1"] == ("faa", 5)
    assert net.stats.onesided_cas_failures == 1


def test_guard_veto_is_a_miss_not_an_error():
    got = {}

    def reader(proc, eps):
        (got["res"],) = eps[0].net.onesided.post(0, 1,
                                                 [ops.read(("page", 7))])

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("page", 7), value=b"x",
                                     nbytes=1, guard=lambda op: False)

    engine, _, _ = build(2, [reader, owner])
    engine.run()
    assert got["res"] == ("miss",)


def test_write_deposits_via_callback():
    box = []

    def writer(proc, eps):
        eps[0].net.onesided.post(0, 1, [ops.write(("push",), ("hello", 1),
                                                  64)], sync=False)

    def owner(proc, eps):
        eps[1].net.onesided.register(
            1, ("push",), on_write=lambda v, n: box.append((v, n)))

    engine, _, _ = build(2, [writer, owner])
    engine.run()
    assert box == [(("hello", 1), 64)]


# ----------------------------------------------------------------------
# Wild ops: typed errors naming window and range.
# ----------------------------------------------------------------------

def _capture_error(got, fn):
    """Run ``fn`` in-process, recording the WindowError it must raise
    (sync-batch errors surface at the initiator's ``post_wait``)."""
    try:
        fn()
    except WindowError as exc:
        got["err"] = str(exc)
    else:
        got["err"] = None


def test_unregistered_window_raises_window_error():
    got = {}

    def reader(proc, eps):
        _capture_error(got, lambda: eps[0].net.onesided.post(
            0, 1, [ops.read(("nope", 9))]))

    engine, _, _ = build(2, [reader, idle])
    engine.run()
    assert "('nope', 9)" in got["err"]
    assert "not registered" in got["err"]


def test_out_of_bounds_read_names_window_and_range():
    got = {}

    def reader(proc, eps):
        _capture_error(got, lambda: eps[0].net.onesided.post(
            0, 1, [ops.read(("image",), off=96, length=64)]))

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("image",), nbytes=128,
                                     reader=lambda off, length: b"")

    engine, _, _ = build(2, [reader, owner])
    engine.run()
    assert "('image',)" in got["err"]
    assert "[96, 160)" in got["err"] and "[0, 128)" in got["err"]


def test_missing_capability_raises():
    got = {}

    def writer(proc, eps):
        # A value window with no on_write is not a write target.
        _capture_error(got, lambda: eps[0].net.onesided.post(
            0, 1, [ops.write(("ro",), b"x", 1)]))

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("ro",), value=b"v", nbytes=1)

    engine, _, _ = build(2, [writer, owner])
    engine.run()
    assert "not writable" in got["err"]


def test_posted_wild_write_raises_at_service_time():
    def writer(proc, eps):
        eps[0].net.onesided.post(0, 1, [ops.write(("nope",), b"x", 1)],
                                 sync=False)

    engine, _, _ = build(2, [writer, idle])
    with pytest.raises(WindowError, match="not registered"):
        engine.run()


# ----------------------------------------------------------------------
# Batching, accounting, cost model.
# ----------------------------------------------------------------------

def test_batch_one_doorbell_many_ops():
    def writer(proc, eps):
        eps[0].net.onesided.post(
            0, 1, [ops.write(("push",), i, 32) for i in range(5)],
            sync=False)

    box = []

    def owner(proc, eps):
        eps[1].net.onesided.register(
            1, ("push",), on_write=lambda v, n: box.append(v))

    engine, net, _ = build(2, [writer, owner])
    engine.run()
    assert box == list(range(5))
    assert net.stats.onesided_batches == 1
    assert net.stats.onesided_ops == 5
    assert net.stats.onesided_bytes == 5 * 32


def test_onesided_frames_not_in_message_books():
    def reader(proc, eps):
        eps[0].net.onesided.post(0, 1, [ops.read(("v",))])

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("v",), value=1, nbytes=8)

    engine, net, _ = build(2, [reader, owner])
    engine.run()
    assert net.stats.messages == 0
    assert net.stats.onesided_batches == 1
    assert net.stats.onesided_ops == 1
    assert net.stats.onesided_bytes == 8          # read bytes at cmpl
    assert net.stats.onesided_by_op["read"] == 1


def test_read_batch_sync_results_in_op_order():
    got = {}

    def reader(proc, eps):
        got["res"] = eps[0].net.onesided.post(
            0, 1, [ops.read((k,)) for k in "abc"])

    def owner(proc, eps):
        plane = eps[1].net.onesided
        plane.register(1, ("a",), value="A", nbytes=1)
        plane.register(1, ("b",), value="B", nbytes=1,
                       guard=lambda op: False)
        plane.register(1, ("c",), value="C", nbytes=1)

    engine, _, _ = build(2, [reader, owner])
    engine.run()
    assert got["res"] == [("ok", "A", 1), ("miss",), ("ok", "C", 1)]


def test_destination_process_never_scheduled():
    """The whole point: a sync read completes while the owner's
    process stays blocked in an unrelated receive."""
    got = {}

    def reader(proc, eps):
        (got["res"],) = eps[0].net.onesided.post(0, 1, [ops.read(("v",))])
        eps[0].send(1, "stop")

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("v",), value=7, nbytes=8)
        t0 = proc.engine.now
        eps[1].recv(kind="stop")
        got["owner_blocked_span"] = proc.engine.now - t0

    engine, _, _ = build(2, [reader, owner])
    engine.run()
    assert got["res"] == ("ok", 7, 8)
    assert got["owner_blocked_span"] > 0.0


def test_deregister_where():
    engine = Engine()
    net = Network(engine, MachineConfig(nprocs=2), 2)
    plane = OneSidedPlane(net)
    plane.register(1, ("diff", 0, 4), value=1, nbytes=8)
    plane.register(1, ("diff", 1, 5), value=2, nbytes=8)
    plane.register(1, ("image",), nbytes=64,
                   reader=lambda off, length: b"")
    assert plane.deregister_where(1, lambda k: k[0] == "diff") == 2
    assert plane.window(1, ("diff", 0, 4)) is None
    assert plane.window(1, ("image",)) is not None


def test_doorbell_and_poll_costs_charged():
    cfg = MachineConfig(nprocs=2)
    t = {}

    def reader(proc, eps):
        eps[0].net.onesided.post(0, 1, [ops.read(("v",))])
        t["end"] = proc.engine.now

    def owner(proc, eps):
        eps[1].net.onesided.register(1, ("v",), value=1, nbytes=8)

    engine, _, _ = build(2, [reader, owner], config=cfg)
    engine.run()
    wire = cfg.rdma_op_bytes * 1
    expected = (cfg.rdma_post_cost + cfg.wire_time(wire)
                + cfg.rdma_op_service + cfg.wire_time(8)
                + cfg.rdma_poll_cost)
    assert t["end"] == pytest.approx(expected)
