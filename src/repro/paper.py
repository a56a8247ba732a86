"""The paper's evaluation grid: its published numbers and one driver.

Paper §4 reports 47 cells: Table 2's throughput (20), Table 3's
round-trip latency (15), Table 4's connection setup (5), the five
components of the library's Ethernet setup, and Table 5's two
per-packet demultiplexing costs.  This module holds the only copy of
those numbers, and :func:`grid` measures every cell once on the
simulated testbed and returns it beside the paper's value.  The bench
estate asserts the paper's shapes on those rows (``pytest benchmarks``)
and ``python tools/calibrate.py`` prints them.  Nothing ``import repro``
loads imports this module.
"""

from __future__ import annotations

from typing import NamedTuple

from .costs import DECSTATION_5000_200 as COSTS
from .metrics import measure_latency, measure_setup, measure_throughput
from .net.headers import ETHERTYPE_IP, PROTO_TCP, TCP_ACK, EthernetHeader
from .netio.template import tcp_send_template
from .protocols.ip import encapsulate
from .protocols.tcp import Segment, encode_segment
from .testbed import IP_A, IP_B, MAC_A, MAC_B, Testbed

# Table 2: TCP throughput in Mb/s by (network, system, user packet size).
TABLE2_SIZES = (512, 1024, 2048, 4096)
TABLE2 = {
    ("ethernet", "ultrix"): {512: 5.8, 1024: 7.6, 2048: 7.6, 4096: 7.6},
    ("ethernet", "mach-ux"): {512: 2.1, 1024: 2.5, 2048: 3.2, 4096: 3.5},
    ("ethernet", "userlib"): {512: 4.3, 1024: 4.6, 2048: 4.8, 4096: 5.0},
    ("an1", "ultrix"): {512: 4.8, 1024: 10.2, 2048: 11.9, 4096: 11.9},
    ("an1", "userlib"): {512: 6.7, 1024: 8.1, 2048: 9.4, 4096: 11.9},
}

# Table 3: round-trip latency in ms by (network, system, message size).
TABLE3_SIZES = (1, 512, 1460)
TABLE3 = {
    ("ethernet", "ultrix"): {1: 1.6, 512: 3.5, 1460: 6.2},
    ("ethernet", "mach-ux"): {1: 7.8, 512: 10.8, 1460: 16.0},
    ("ethernet", "userlib"): {1: 2.8, 512: 5.2, 1460: 9.9},
    ("an1", "ultrix"): {1: 1.8, 512: 2.7, 1460: 3.2},
    ("an1", "userlib"): {1: 2.7, 512: 3.4, 1460: 4.7},
}

# Table 4: connection setup time in ms by (network, system).
TABLE4 = {
    ("ethernet", "ultrix"): 2.6,
    ("an1", "ultrix"): 2.9,
    ("ethernet", "mach-ux"): 6.8,
    ("ethernet", "userlib"): 11.9,
    ("an1", "userlib"): 12.3,
}

# The paper's breakdown of the library's Ethernet setup, in ms.
TABLE4_BREAKDOWN = {
    "remote_and_back": 4.6,
    "non_overlapped_outbound": 1.5,
    "channel_setup": 3.4,
    "app_server_ipc": 0.9,
    "state_transfer": 1.4,
}

# Table 5: per-packet demultiplexing cost in microseconds: software
# demux on the Lance Ethernet, the hardware BQI on the AN1.
TABLE5 = {"ethernet": 52.0, "an1": 50.0}

#: Run sizes: bytes per Table 2 transfer, round trips per Table 3 cell,
#: connects per Table 4 cell, packets per Table 5 cell.
TABLE2_BYTES = 400_000
TABLE3_ROUNDS = 40
TABLE4_ROUNDS = 8
TABLE5_PACKETS = 50

#: Each table's heading in :func:`render`.
TITLES = {
    "table2": "Table 2: throughput by user packet size",
    "table3": "Table 3: round-trip latency by message size",
    "table4": "Table 4: connection setup",
    "table4-breakdown": "Table 4 breakdown: library setup on Ethernet, by component",
    "table5": "Table 5: demux cost, Ethernet software and AN1 BQI",
}


class Row(NamedTuple):
    """One cell: what the testbed measures and what the paper printed."""

    measured: float
    paper: float
    unit: str


def grid() -> dict[tuple, Row]:
    """Measure every cell once, keyed ``(table, network, system, point)``.

    ``point`` is the user packet size (Table 2), the message size
    (Table 3), the setup component (the breakdown), or ``None``.
    """
    rows = {}
    for (network, system), paper in TABLE2.items():
        for size in TABLE2_SIZES:
            testbed = Testbed(network=network, organization=system)
            result = measure_throughput(testbed, total_bytes=TABLE2_BYTES, chunk_size=size)
            rows["table2", network, system, size] = Row(
                result.throughput_mbps, paper[size], "Mb/s"
            )
    for (network, system), paper in TABLE3.items():
        for size in TABLE3_SIZES:
            testbed = Testbed(network=network, organization=system)
            result = measure_latency(testbed, message_size=size, rounds=TABLE3_ROUNDS)
            rows["table3", network, system, size] = Row(result.rtt_ms, paper[size], "ms")
    for (network, system), paper in TABLE4.items():
        testbed = Testbed(network=network, organization=system)
        result = measure_setup(testbed, rounds=TABLE4_ROUNDS)
        rows["table4", network, system, None] = Row(result.setup_ms, paper, "ms")
    breakdown = _setup_breakdown()
    for component, paper in TABLE4_BREAKDOWN.items():
        rows["table4-breakdown", "ethernet", "userlib", component] = Row(
            breakdown[component], paper, "ms"
        )
    for network, paper in TABLE5.items():
        rows["table5", network, "userlib", None] = Row(_demux_cost_us(network), paper, "us")
    return rows


def render(rows: dict[tuple, Row]) -> list[str]:
    """The rows as text, one heading per table."""
    lines, table = [], None
    for (name, network, system, point), row in rows.items():
        if name != table:
            lines.append(f"--- {TITLES[name]} ({row.unit}) ---")
            table = name
        label = " ".join(str(part) for part in (network, system, point) if part is not None)
        lines.append(
            f"  {label:42s} measured {row.measured:8.2f}  paper {row.paper:6.2f}"
            f"  (x{row.measured / row.paper:.2f})"
        )
    return lines


def _setup_breakdown() -> dict:
    """One instrumented library connect on Ethernet: each component in ms."""
    testbed = Testbed(network="ethernet", organization="userlib")
    done = {}

    def server():
        listener = yield from testbed.service_b.listen(4300)
        conn = yield from listener.accept()
        yield from conn.recv(64)

    def client():
        # Warm the ARP cache so the breakdown is pure setup.
        yield from testbed.host_a.resolve_link(IP_B)
        start = testbed.sim.now
        conn = yield from testbed.service_a.connect(IP_B, 4300)
        done["total_ms"] = (testbed.sim.now - start) * 1e3
        yield from conn.send(b"ok")

    testbed.app_b.spawn(server(), name="server")
    proc = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=proc)
    b = testbed.registry_a.last_breakdown
    out = {
        key: b[key] * 1e3
        for key in ("remote_and_back", "non_overlapped_outbound", "channel_setup", "state_transfer")
    }
    # App<->server IPC: what the app saw minus what the registry spent.
    registry_span = (b["reply_at"] - b["request_at"]) * 1e3
    out["app_server_ipc"] = max(0.0, done["total_ms"] - registry_span)
    return out


def demux_frame() -> bytes:
    """The Ethernet frame Table 5 delivers: a TCP segment of 64 payload bytes."""
    seg = Segment(
        sport=5000, dport=6000, seq=1, ack=1, flags=TCP_ACK,
        window=0, payload=b"x" * 64,
    )
    packet = encapsulate(IP_A, IP_B, PROTO_TCP, encode_segment(seg, IP_A, IP_B))
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + packet.tobytes()


def _demux_cost_us(network: str) -> float:
    """Receiver CPU microseconds per packet attributable to demux.

    Single packets go through the network I/O module to an otherwise
    idle host; the itemized non-demux costs are subtracted, per the
    paper's method ("copy and DMA costs are not included").
    """
    testbed = Testbed(network=network, organization="userlib")
    netio_a, netio_b = testbed.host_a.netio, testbed.host_b.netio
    link_a = MAC_B if network == "ethernet" else 2
    link_b = MAC_A if network == "ethernet" else 1
    packet = demux_frame()[EthernetHeader.LENGTH:]
    busy = {}

    def scenario():
        # Only a registry installs channels: each on a thread of its own.
        chan_b = yield testbed.registry_b.task.spawn(netio_b.create_channel(
            testbed.registry_b.task, testbed.app_b,
            tcp_send_template(IP_B, 6000, IP_A, 5000),
            local_ip=IP_B, local_port=6000,
            remote_ip=IP_A, remote_port=5000, link_dst=link_b,
        ), name="channel")
        chan_a = yield testbed.registry_a.task.spawn(netio_a.create_channel(
            testbed.registry_a.task, testbed.app_a,
            tcp_send_template(IP_A, 5000, IP_B, 6000),
            local_ip=IP_A, local_port=5000,
            remote_ip=IP_B, remote_port=6000, link_dst=link_a,
            peer_bqi=chan_b.region.bqi,
        ), name="channel")
        before = testbed.host_b.kernel.cpu.busy_time
        for _ in range(TABLE5_PACKETS):
            yield from netio_a.send(testbed.app_a, chan_a, packet)
            # Drain so batching doesn't skew the signal accounting.
            yield from chan_b.receive_batch()
        busy["per_packet"] = (testbed.host_b.kernel.cpu.busy_time - before) / TABLE5_PACKETS

    testbed.run(until=testbed.app_a.spawn(scenario(), name="bench"))
    non_demux = COSTS.semaphore_signal + COSTS.cthread_sync_op
    if network == "ethernet":
        non_demux += (
            COSTS.interrupt
            + COSTS.pio_cost(len(packet) + EthernetHeader.LENGTH)
            + COSTS.eth_user_delivery
        )
    else:
        non_demux += COSTS.interrupt
    return (busy["per_packet"] - non_demux) * 1e6
