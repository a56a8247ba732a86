"""Demux scaling: flat indexed lookup vs linear interpreted scan.

The paper's Table 5 quotes a single 52 µs software-demux cost with no
dependence on connection count — defensible only because synthesized
demux is an indexed lookup.  This bench drives the actual receive path
with 1 → 256 concurrent channels installed and measures the per-packet
receiver CPU attributable to demultiplexing (Table 5 methodology:
itemized non-demux costs subtracted):

* **synthesized** (flow-table exact tier): cost stays flat within 10%
  from 1 to 256 channels;
* **cspf** (legacy scan tier): cost grows linearly with the number of
  filters scanned — the organization the paper argues "is not likely
  to scale".

The packet always targets the *last-installed* channel, so the scan
tier pays its worst case while the hash tier is, by construction,
indifferent.
"""

from repro.costs import DECSTATION_5000_200
from repro.mach import Kernel
from repro.net import EthernetLink, PmaddNic, str_to_ip, str_to_mac
from repro.net.headers import ETHERTYPE_IP, EthernetHeader, Ipv4Header, PROTO_TCP, TCP_ACK
from repro.netio import NetworkIoModule, tcp_send_template
from repro.netstat import demux_table
from repro.protocols.tcp import Segment, encode_segment
from repro.sim import Simulator

COSTS = DECSTATION_5000_200
IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")

CHANNEL_COUNTS = (1, 4, 16, 64, 256)
TARGET_PORT = 6000
ROUNDS = 30


def target_frame() -> bytes:
    seg = Segment(
        sport=5000, dport=TARGET_PORT, seq=1, ack=1, flags=TCP_ACK,
        window=0, payload=b"x" * 32,
    )
    tcp = encode_segment(seg, IP_A, IP_B)
    ip = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    ).pack() + tcp
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + ip


def measure_demux_us(style: str, n_channels: int) -> float:
    """Per-packet receiver demux cost (µs) with ``n_channels`` flows."""
    sim = Simulator()
    link = EthernetLink(sim)
    kernel_a = Kernel(sim, COSTS, name="A")
    kernel_b = Kernel(sim, COSTS, name="B")
    nic_a = PmaddNic(kernel_a, link, MAC_A, name="ethA")
    nic_b = PmaddNic(kernel_b, link, MAC_B, name="ethB")
    io_a = NetworkIoModule(kernel_a, nic_a, style)
    io_b = NetworkIoModule(kernel_b, nic_b, style)
    registry_b = kernel_b.create_task("registryB", privileged=True)
    app_b = kernel_b.create_task("appB")
    results = {}

    def scenario():
        # Decoy channels first: the target's filter lands *last* in the
        # scan tier, the interpreted worst case.
        for i in range(n_channels - 1):
            yield from io_b.create_channel(
                registry_b, app_b,
                tcp_send_template(IP_B, 20000 + i, IP_A, 30000 + i),
                local_ip=IP_B, local_port=20000 + i,
                remote_ip=IP_A, remote_port=30000 + i, link_dst=MAC_A,
            )
        target = yield from io_b.create_channel(
            registry_b, app_b,
            tcp_send_template(IP_B, TARGET_PORT, IP_A, 5000),
            local_ip=IP_B, local_port=TARGET_PORT,
            remote_ip=IP_A, remote_port=5000, link_dst=MAC_A,
        )
        frame = target_frame()
        busy_before = kernel_b.cpu.busy_time
        for _ in range(ROUNDS):
            yield from io_a.kernel_send(
                frame[EthernetHeader.LENGTH:], MAC_B
            )
            yield from target.receive_batch()
        # Let the final notification's kernel-side charge drain before
        # reading the CPU counter.
        yield sim.timeout(1e-3)
        results["per_packet"] = (
            kernel_b.cpu.busy_time - busy_before
        ) / ROUNDS
        results["delivered"] = target.stats["delivered"]

    sim.run(until=sim.process(scenario(), name="bench"))
    assert results["delivered"] == ROUNDS

    frame_len = len(target_frame())
    non_demux = (
        COSTS.interrupt
        + COSTS.pio_cost(frame_len)
        + COSTS.eth_user_delivery
        + COSTS.semaphore_signal
        + COSTS.cthread_sync_op
    )
    return (results["per_packet"] - non_demux) * 1e6


def run_scaling() -> dict:
    out = {}
    for style in ("synthesized", "cspf"):
        for n in CHANNEL_COUNTS:
            out[(style, n)] = measure_demux_us(style, n)
    return out


def test_demux_scaling_flat_vs_linear(benchmark, report):
    r = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    for n in CHANNEL_COUNTS:
        report(
            "Demux scaling (per-packet cost vs channels)",
            f"{n} channels: synthesized vs cspf scan",
            r[("synthesized", n)],
            r[("cspf", n)],
            "us",
        )
    # The indexed path is flat: within 10% across 1 -> 256 channels.
    synth = [r[("synthesized", n)] for n in CHANNEL_COUNTS]
    assert max(synth) <= min(synth) * 1.10
    # And it is the paper's 52 us figure at every scale.
    for cost in synth:
        assert abs(cost - COSTS.flow_lookup * 1e6) < 5.0
    # The interpreted scan grows with channel count - monotonically,
    # and by more than an order of magnitude over the sweep.
    scan = [r[("cspf", n)] for n in CHANNEL_COUNTS]
    assert all(a < b for a, b in zip(scan, scan[1:]))
    assert scan[-1] > scan[0] * 10


def test_demux_scaling_tier_counters():
    """The flow table's own counters corroborate the cost shape."""
    sim_cost = measure_demux_us("synthesized", 64)
    assert sim_cost > 0
    # Re-run one config and inspect netstat's demux row directly.
    sim = Simulator()
    link = EthernetLink(sim)
    kernel_a = Kernel(sim, COSTS, name="A")
    kernel_b = Kernel(sim, COSTS, name="B")
    nic_a = PmaddNic(kernel_a, link, MAC_A, name="ethA")
    nic_b = PmaddNic(kernel_b, link, MAC_B, name="ethB")
    io_a = NetworkIoModule(kernel_a, nic_a, "synthesized")
    io_b = NetworkIoModule(kernel_b, nic_b, "synthesized")
    registry_b = kernel_b.create_task("registryB", privileged=True)
    app_b = kernel_b.create_task("appB")

    class HostView:
        name = "B"
        netio = io_b

    class BedView:
        hosts = [HostView]

    def scenario():
        target = yield from io_b.create_channel(
            registry_b, app_b,
            tcp_send_template(IP_B, TARGET_PORT, IP_A, 5000),
            local_ip=IP_B, local_port=TARGET_PORT,
            remote_ip=IP_A, remote_port=5000, link_dst=MAC_A,
        )
        frame = target_frame()
        for _ in range(10):
            yield from io_a.kernel_send(frame[EthernetHeader.LENGTH:], MAC_B)
            yield from target.receive_batch()

    sim.run(until=sim.process(scenario(), name="bench"))
    (row,) = demux_table(BedView)
    assert row.exact_hits == 10
    assert row.misses == 0
    assert row.mean_scan == 0.0
