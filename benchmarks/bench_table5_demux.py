"""Table 5: hardware/software packet demultiplexing tradeoffs.

Paper §4: per-packet demux cost is ~52 µs for software demux on the
Lance Ethernet and ~50 µs for the AN1's hardware BQI path (bookkeeping
included, copy/DMA costs excluded) — "there is no significant
difference in the timing".

We measure the receiver-CPU time attributable to demultiplexing by
delivering single packets through the network I/O module on an
otherwise idle host and subtracting the itemized non-demux costs.
Additionally, pytest-benchmark times our actual classifier
implementations (interpreted stack machine vs the indexed flow table)
in wall-clock terms.
"""

import pytest
from paper_targets import TABLE5

from repro.costs import DECSTATION_5000_200
from repro.net.headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    TCP_ACK,
    str_to_ip,
)
from repro.netio import FlowKey, FlowTable, tcp_filter_program
from repro.protocols.tcp import Segment, encode_segment
from repro.testbed import IP_A, IP_B, MAC_A, MAC_B, Testbed

COSTS = DECSTATION_5000_200


def frame_for(size: int = 64) -> bytes:
    seg = Segment(
        sport=5000, dport=6000, seq=1, ack=1, flags=TCP_ACK,
        window=0, payload=b"x" * size,
    )
    tcp = encode_segment(seg, IP_A, IP_B)
    ip = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    ).pack() + tcp.tobytes()
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + ip


def measure_demux_cost(network: str) -> float:
    """Receiver CPU microseconds per packet attributable to demux."""
    from repro.netio.template import tcp_send_template

    testbed = Testbed(network=network, organization="userlib")
    netio_a, netio_b = testbed.host_a.netio, testbed.host_b.netio
    link_a = MAC_B if network == "ethernet" else 2
    link_b = MAC_A if network == "ethernet" else 1
    packet = frame_for()[EthernetHeader.LENGTH:]
    results = {}

    def scenario():
        chan_b = yield from netio_b.create_channel(
            testbed.registry_b.task, testbed.app_b,
            tcp_send_template(IP_B, 6000, IP_A, 5000),
            local_ip=IP_B, local_port=6000,
            remote_ip=IP_A, remote_port=5000, link_dst=link_b,
        )
        chan_a = yield from netio_a.create_channel(
            testbed.registry_a.task, testbed.app_a,
            tcp_send_template(IP_A, 5000, IP_B, 6000),
            local_ip=IP_A, local_port=5000,
            remote_ip=IP_B, remote_port=6000, link_dst=link_a,
            peer_bqi=chan_b.ring.bqi if network == "an1" else 0,
        )
        n = 50
        busy_before = testbed.host_b.kernel.cpu.busy_time
        for _ in range(n):
            yield from netio_a.send(testbed.app_a, chan_a, packet)
            # Drain so batching doesn't skew the signal accounting.
            yield from chan_b.receive_batch()
        busy = testbed.host_b.kernel.cpu.busy_time - busy_before
        results["per_packet"] = busy / n
        return results

    proc = testbed.spawn(scenario(), name="bench")
    testbed.run(until=proc)

    per_packet = results["per_packet"]
    # Subtract the itemized non-demux receiver costs, per the paper's
    # methodology ("only the cost of software/hardware packet
    # demultiplexing; copy and DMA costs are not included").
    non_demux = COSTS.semaphore_signal + COSTS.cthread_sync_op
    if network == "ethernet":
        non_demux += (
            COSTS.interrupt
            + COSTS.pio_cost(len(packet) + EthernetHeader.LENGTH)
            + COSTS.eth_user_delivery
        )
    else:
        non_demux += COSTS.interrupt
    return (per_packet - non_demux) * 1e6


def test_table5_software_demux_cost(benchmark, report):
    cost_us = benchmark.pedantic(
        measure_demux_cost, args=("ethernet",), rounds=1, iterations=1
    )
    report(
        "Table 5 (demux cost)", "Lance Ethernet (software)",
        cost_us, TABLE5["ethernet-software"], "us",
    )
    assert cost_us == pytest.approx(TABLE5["ethernet-software"], rel=0.25)


def test_table5_hardware_bqi_cost(benchmark, report):
    cost_us = benchmark.pedantic(
        measure_demux_cost, args=("an1",), rounds=1, iterations=1
    )
    report(
        "Table 5 (demux cost)", "AN1 (hardware BQI)",
        cost_us, TABLE5["an1-hardware-bqi"], "us",
    )
    assert cost_us == pytest.approx(TABLE5["an1-hardware-bqi"], rel=0.25)


def test_table5_no_significant_difference(benchmark):
    """Paper: "there is no significant difference in the timing"."""

    def run():
        return measure_demux_cost("ethernet"), measure_demux_cost("an1")

    sw, hw = benchmark.pedantic(run, rounds=1, iterations=1)
    assert abs(sw - hw) <= 15.0  # Microseconds.


# ----------------------------------------------------------------------
# Wall-clock speed of the actual classifiers (our implementation).
# ----------------------------------------------------------------------

FRAME = frame_for()


def test_classifier_wallclock_interpreted(benchmark):
    program = tcp_filter_program(IP_B, 6000, IP_A, 5000)
    assert program.run(FRAME)
    benchmark(program.run, FRAME)


def test_classifier_wallclock_synthesized(benchmark):
    """What the receive path runs per frame: ``FlowTable.classify``."""
    table = FlowTable()
    channel = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 6000, IP_A, 5000), channel)
    assert table.classify(FRAME, COSTS).channel is channel
    benchmark(table.classify, FRAME, COSTS)
