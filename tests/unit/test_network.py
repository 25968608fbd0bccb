"""Unit tests for the simulated interconnect and its calibration."""

import pytest

from repro.harness.experiments import roundtrip_us
from repro.machine import MachineConfig
from repro.net import Network
from repro.sim import Engine


def build(nprocs, mains, config=None):
    """Wire up an engine + network with one endpoint per main function."""
    engine = Engine()
    config = config or MachineConfig(nprocs=nprocs)
    net = Network(engine, config, nprocs)
    endpoints = {}
    for i, main in enumerate(mains):
        proc = engine.add_process(f"p{i}", lambda p, m=main: m(p, endpoints))
        endpoints[i] = net.attach(proc)
    return engine, net, endpoints


def test_send_recv_basic():
    got = {}

    def sender(proc, eps):
        eps[0].send(1, "data", payload=123, size=100)

    def receiver(proc, eps):
        msg = eps[1].recv(kind="data")
        got["payload"] = msg.payload
        got["time"] = proc.engine.now

    engine, net, _ = build(2, [sender, receiver])
    engine.run()
    assert got["payload"] == 123
    cfg = MachineConfig()
    expected = (cfg.send_overhead + cfg.wire_time(100) + cfg.recv_overhead)
    assert got["time"] == pytest.approx(expected)


def test_message_stats_recorded():
    def sender(proc, eps):
        eps[0].send(1, "data", size=100)
        eps[0].send(1, "data", size=50)

    def receiver(proc, eps):
        eps[1].recv(kind="data")
        eps[1].recv(kind="data")

    engine, net, _ = build(2, [sender, receiver])
    engine.run()
    assert net.stats.messages == 2
    cfg = MachineConfig()
    assert net.stats.bytes == 150 + 2 * cfg.header_bytes
    assert net.stats.by_kind["data"] == 2


def test_recv_matches_by_src_and_tag():
    order = []

    def sender_a(proc, eps):
        eps[0].send(2, "data", payload="from0", tag="x")

    def sender_b(proc, eps):
        eps[1].send(2, "data", payload="from1", tag="y")

    def receiver(proc, eps):
        # Ask for tag y first, even though tag x arrives first.
        msg = eps[2].recv(kind="data", tag="y")
        order.append(msg.payload)
        msg = eps[2].recv(kind="data", tag="x")
        order.append(msg.payload)

    engine, _, _ = build(3, [sender_a, sender_b, receiver])
    engine.run()
    assert order == ["from1", "from0"]


def test_handler_path_roundtrip_calibration():
    """Minimum request/response roundtrip must be the paper's 365 us."""
    assert roundtrip_us() == pytest.approx(365.0, rel=0.01)


def test_interrupt_steals_time_from_computation():
    """A request interrupting a computing processor delays its work."""
    result = {}

    def requester(proc, eps):
        proc.advance(10.0)
        eps[0].send(1, "request", size=0)
        eps[0].recv(kind="reply")

    def worker(proc, eps):
        cfg = eps[1].net.config

        def handle(msg):
            eps[1].charge(cfg.request_service)
            eps[1].send(msg.src, "reply", size=0)

        eps[1].on("request", handle)
        proc.advance(1000.0)
        result["done"] = proc.engine.now

    engine, _, _ = build(2, [requester, worker])
    engine.run()
    cfg = MachineConfig()
    stolen = (cfg.interrupt_cost + cfg.request_service + cfg.send_overhead)
    assert result["done"] == pytest.approx(1000.0 + stolen)


def test_handler_without_interrupt_flag_charges_no_interrupt():
    result = {}

    def requester(proc, eps):
        eps[0].send(1, "request", size=0)
        eps[0].recv(kind="reply")

    def worker(proc, eps):
        def handle(msg):
            eps[1].charge(10.0)
            eps[1].send(msg.src, "reply", size=0)

        eps[1].on("request", handle, interrupt=False)
        proc.advance(1000.0)
        result["done"] = proc.engine.now

    engine, _, _ = build(2, [requester, worker])
    engine.run()
    cfg = MachineConfig()
    assert result["done"] == pytest.approx(1000.0 + 10.0 + cfg.send_overhead)


def test_broadcast_sends_n_minus_1_messages():
    def root(proc, eps):
        eps[0].broadcast("data", size=10)

    def leaf(proc, eps):
        pid = proc.pid
        eps[pid].recv(kind="data")

    engine, net, _ = build(4, [root, leaf, leaf, leaf])
    engine.run()
    assert net.stats.messages == 3


def test_wire_time_scales_with_size():
    times = {}

    def sender(proc, eps):
        eps[0].send(1, "small", size=0)
        eps[0].send(1, "big", size=35000)

    def receiver(proc, eps):
        eps[1].recv(kind="small")
        t0 = proc.engine.now
        eps[1].recv(kind="big")
        times["big_extra"] = proc.engine.now - t0

    engine, _, _ = build(2, [sender, receiver])
    engine.run()
    # 35000 bytes at 35 bytes/us adds ~1000 us of wire time.
    assert times["big_extra"] > 900.0
