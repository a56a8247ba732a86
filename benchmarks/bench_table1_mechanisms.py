"""Table 1: impact of our mechanisms on raw throughput.

Paper §4: "we ran a micro-benchmark that used two applications to
exchange data over the 10 Mb/s Ethernet, without using any higher-level
protocols.  All the standard mechanisms that we provide (including the
library-kernel signaling) are exercised in this experiment" — and the
result is compared against "the maximum achievable using the raw
hardware with a standalone program and no operating system" (link
saturation once frame format and inter-packet gaps are accounted for).

Our version: application A pushes pre-formed maximum-sized packets
through its protected channel (template check, PIO, wire); application B
receives them through the shared region with batched semaphore
notifications.  No TCP machine runs.
"""

from repro.net.buf import prepend
from repro.net.headers import EthernetHeader, Ipv4Header, PROTO_TCP, TCP_ACK
from repro.net.link import EthernetLink
from repro.netio.channels import ChannelClosed
from repro.protocols.tcp import Segment, encode_segment
from repro.testbed import IP_A, IP_B, MAC_A, MAC_B, Testbed

#: Table 1's shape: the raw mechanisms reach a large fraction of
#: standalone link saturation with max-sized frames.
TABLE1_MIN_FRACTION = 0.80


def build_packet(size: int) -> bytes:
    """A max-sized, template-conformant IP packet (static TCP header)."""
    payload = bytes(range(256)) * (size // 256 + 1)
    seg = Segment(
        sport=5000, dport=6000, seq=1, ack=1, flags=TCP_ACK,
        window=0, payload=payload[: size - 40],
    )
    tcp = encode_segment(seg, IP_A, IP_B)
    header = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    )
    return prepend(header.pack(), tcp)


def run_mechanism_benchmark(npackets: int = 300) -> dict:
    """Exchange raw packets a→b through the full mechanism path."""
    from repro.netio.template import tcp_send_template

    testbed = Testbed(network="ethernet", organization="userlib")
    netio_a, netio_b = testbed.host_a.netio, testbed.host_b.netio
    registry_a, registry_b = testbed.registry_a, testbed.registry_b
    packet = build_packet(1500)
    marks = {}

    def setup_and_run():
        # Each registry installs its channel on a thread of its own.
        chan_a = yield registry_a.task.spawn(netio_a.create_channel(
            registry_a.task, testbed.app_a,
            tcp_send_template(IP_A, 5000, IP_B, 6000),
            local_ip=IP_A, local_port=5000,
            remote_ip=IP_B, remote_port=6000, link_dst=MAC_B,
        ), name="channel")
        chan_b = yield registry_b.task.spawn(netio_b.create_channel(
            registry_b.task, testbed.app_b,
            tcp_send_template(IP_B, 6000, IP_A, 5000),
            local_ip=IP_B, local_port=6000,
            remote_ip=IP_A, remote_port=5000, link_dst=MAC_A,
        ), name="channel")
        testbed.app_b.spawn(receiver(chan_b), name="rx")
        marks["t0"] = testbed.sim.now
        for _ in range(npackets):
            yield from netio_a.send(testbed.app_a, chan_a, packet)

    def receiver(chan_b):
        got = 0
        while got < npackets:
            batch = yield from chan_b.receive_batch()
            got += len(batch)
        marks["t1"] = testbed.sim.now
        marks["received"] = got

    proc = testbed.app_a.spawn(setup_and_run(), name="tx")
    testbed.run(until=proc)
    testbed.run(until=testbed.sim.now + 1.0)
    elapsed = marks["t1"] - marks["t0"]
    user_bytes = marks["received"] * 1500
    link = testbed.link
    # Standalone saturation: back-to-back max frames, nothing else.
    frame_wire = link.frame_time(1514) + EthernetLink.IFG
    saturation_mbps = 1500 * 8 / frame_wire / 1e6
    return {
        "throughput_mbps": user_bytes * 8 / elapsed / 1e6,
        "saturation_mbps": saturation_mbps,
        "packets": marks["received"],
        "counters": [dict(host.kernel.counters) for host in (testbed.host_a, testbed.host_b)],
    }


def test_table1_mechanism_overhead_is_modest(benchmark):
    result = benchmark.pedantic(run_mechanism_benchmark, rounds=1, iterations=1)
    fraction = result["throughput_mbps"] / result["saturation_mbps"]
    # Paper: "our mechanisms introduce only very modest overhead".
    assert result["packets"] == 300
    assert fraction >= TABLE1_MIN_FRACTION, (
        f"mechanism path reached only {fraction:.0%} of link saturation"
    )


def test_table1_shared_memory_delivery_needs_no_registry(benchmark):
    """The mechanism path involves zero registry IPC per packet: the
    sender pays one fast trap per packet, the receiver nothing."""
    result = benchmark.pedantic(
        run_mechanism_benchmark, args=(50,), rounds=1, iterations=1
    )
    assert result["packets"] == 50
    assert [c.get("ipc_messages", 0) for c in result["counters"]] == [0, 0]
    assert sum(c.get("fast_traps", 0) for c in result["counters"]) == 50
