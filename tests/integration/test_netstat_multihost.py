"""Tests for the netstat introspection and multi-host demux isolation."""

from dataclasses import asdict

import pytest

from repro import netstat
from repro.costs import DECSTATION_5000_200
from repro.host import Host
from repro.net.headers import str_to_ip, str_to_mac
from repro.net.link import EthernetLink
from repro.org.monolithic import MonolithicTcpStack, ULTRIX
from repro.sim import Simulator
from repro.testbed import IP_B, Testbed


def test_connection_table_shows_live_state():
    testbed = Testbed(network="ethernet", organization="userlib")

    def server():
        listener = yield from testbed.service_b.listen(9900)
        conn = yield from listener.accept()
        yield from conn.recv(1024)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 9900)
        yield from conn.send(b"visible")
        yield testbed.sim.timeout(0.5)

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)

    connections = netstat.connection_table(testbed)
    assert len(connections) == 2  # One record per registry.
    states = {entry.state for entry in connections}
    assert states == {"ESTABLISHED"}
    locals_ = {entry.local for entry in connections}
    assert "10.0.0.2:9900" in locals_

    channels = netstat.channel_table(testbed)
    assert len(channels) == 2
    # Established userlib connections live in the exact-match tier.
    assert all(entry.kind == "exact" for entry in channels)
    report = netstat.render(testbed)
    assert "ESTABLISHED" in report
    assert "Protected channels" in report

    demux = netstat.demux_table(testbed)
    assert len(demux) == 2
    for entry in demux:
        assert entry.exact == 1  # One granted connection per host.
        assert entry.exact_hits > 0  # The data path went through it.
        assert entry.scan_hits == 0
    assert "Demux engine" in report


def test_channel_table_shows_bqi_on_an1():
    testbed = Testbed(network="an1", organization="userlib")

    def server():
        listener = yield from testbed.service_b.listen(9901)
        conn = yield from listener.accept()
        yield from conn.recv(64)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 9901)
        yield from conn.send(b"x")
        yield testbed.sim.timeout(0.3)

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)
    channels = netstat.channel_table(testbed)
    assert all(entry.kind.startswith("bqi ") for entry in channels)


def test_tables_agree_with_the_counters_they_render():
    """netstat is the one read surface: its rows are the raw counters."""
    from repro.metrics import measure_throughput
    from repro.net import buf
    from repro.protocols.tcp.wire import TcpSegmentEncoder

    buf.reset_stats()
    TcpSegmentEncoder.reset_global_stats()
    testbed = Testbed(network="ethernet", organization="userlib")
    measure_throughput(testbed, total_bytes=192 * 1024)

    # Hits and misses are counted inside FlowTable.classify; the module
    # counts one payload view per frame it had classified.
    for host, row in zip(testbed.hosts, netstat.demux_table(testbed)):
        classified = host.netio.flow_table.stats["payload_views"]
        assert classified > 0
        assert (
            row.exact_hits + row.wildcard_hits + row.scan_hits + row.misses
            == classified
        )
    copies, fusion = (
        row for row in netstat.copy_table(testbed) if row.scope == "datapath"
    )
    assert (copies.copied_bytes, copies.avoided_bytes, copies.ops) == (
        buf.STATS.copied_bytes, buf.STATS.avoided_bytes, buf.STATS.copy_ops
    )
    assert (fusion.copied_bytes, fusion.ops) == (
        buf.STATS.materialized_bytes, buf.STATS.materialize_ops
    )
    assert fusion.ops > 0
    (engine,) = netstat.engine_table(testbed)
    assert asdict(engine) == testbed.sim.engine_stats()


def test_netstat_empty_testbed():
    testbed = Testbed(network="ethernet", organization="userlib")
    assert netstat.connection_table(testbed) == []
    report = netstat.render(testbed)
    assert "(none)" in report


def test_three_hosts_share_ethernet_with_isolation():
    """Three hosts on one shared segment: concurrent conversations
    don't cross wires — the MAC filter and the demux both hold."""
    sim = Simulator()
    link = EthernetLink(sim)
    hosts = []
    stacks = []
    for i in range(3):
        host = Host(
            sim,
            link,
            f"h{i}",
            str_to_ip(f"10.0.1.{i + 1}"),
            str_to_mac(f"02:00:00:00:01:{i + 1:02x}"),
            costs=DECSTATION_5000_200,
        )
        hosts.append(host)
        stacks.append(MonolithicTcpStack(host, ULTRIX))
    got = {}

    def server(stack, port, key):
        listener = yield from stack.listen(port)
        conn = yield from listener.accept()
        got[key] = yield from conn.recv_exactly(12)

    def client(stack, dst_ip, port, payload):
        conn = yield from stack.connect(dst_ip, port)
        yield from conn.send(payload)
        yield sim.timeout(0.5)

    # h0 -> h2 and h1 -> h2 concurrently, plus h2 -> h0.
    sim.process(server(stacks[2], 1000, "a"), name="s-a")
    sim.process(server(stacks[2], 1001, "b"), name="s-b")
    sim.process(server(stacks[0], 1002, "c"), name="s-c")
    c1 = sim.process(
        client(stacks[0], hosts[2].ip, 1000, b"from-h0-to-2"), name="c1"
    )
    c2 = sim.process(
        client(stacks[1], hosts[2].ip, 1001, b"from-h1-to-2"), name="c2"
    )
    c3 = sim.process(
        client(stacks[2], hosts[0].ip, 1002, b"from-h2-to-0"), name="c3"
    )
    for proc in (c1, c2, c3):
        sim.run(until=proc)
    assert got == {
        "a": b"from-h0-to-2",
        "b": b"from-h1-to-2",
        "c": b"from-h2-to-0",
    }


def test_engine_table_exposes_batching_and_skip_accounting():
    testbed = Testbed(network="ethernet", organization="userlib")

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 9900)
        yield from conn.send(b"x" * 2048)

    def server():
        listener = yield from testbed.service_b.listen(9900)
        conn = yield from listener.accept()
        yield from conn.recv(4096)

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)
    # Every TCP timer is an engine event and the handshake's ACK retires
    # the SYN's retransmit and connection timers early; run on until
    # those instants come up and the engine pops the tombstones.
    testbed.run(until=testbed.sim.now + 10.0)

    (entry,) = netstat.engine_table(testbed)
    assert entry.events > 0
    assert entry.steps > 0
    assert entry.events == entry.steps + entry.batched
    assert entry.cancelled >= 1
    assert entry.skipped >= 1
    report = netstat.render(testbed)
    assert "Event engine" in report
