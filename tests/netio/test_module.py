"""Tests for the network I/O module: channel setup, protected send,
software/hardware demux, notification batching, and security."""

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.mach import Kernel
from repro.net import An1Link, An1Nic, EthernetLink, PmaddNic, str_to_ip, str_to_mac
from repro.host import Host
from repro.net.headers import (
    ARP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    An1Header,
    ArpPacket,
    EthernetHeader,
    Ipv4Header,
)
from repro.netio import (
    Channel,
    ChannelClosed,
    NetworkIoModule,
    SecurityViolation,
    TemplateViolation,
    tcp_send_template,
)
from repro.netio.module import LinkInfo
from repro.protocols.icmp import encode_echo
from repro.protocols.tcp import Segment, encode_segment
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator
from repro.tenancy.tenant import TenantManager

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


def ip_packet(src_ip, dst_ip, sport, dport, payload=b"hi"):
    seg = Segment(
        sport=sport, dport=dport, seq=1, ack=1, flags=TCP_ACK,
        window=100, payload=payload,
    )
    tcp = encode_segment(seg, src_ip, dst_ip)
    return (
        Ipv4Header(
            src=src_ip, dst=dst_ip, protocol=PROTO_TCP,
            total_length=Ipv4Header.LENGTH + len(tcp),
        ).pack()
        + tcp
    )


class EthWorld:
    """Two hosts on Ethernet with netio modules."""

    def __init__(self, costs=FREE, demux_style="synthesized"):
        self.sim = Simulator()
        self.link = EthernetLink(self.sim)
        self.k_a = Kernel(self.sim, costs, name="A")
        self.k_b = Kernel(self.sim, costs, name="B")
        self.nic_a = PmaddNic(self.k_a, self.link, MAC_A, name="ethA")
        self.nic_b = PmaddNic(self.k_b, self.link, MAC_B, name="ethB")
        self.io_a = NetworkIoModule(self.k_a, self.nic_a, demux_style)
        self.io_b = NetworkIoModule(self.k_b, self.nic_b, demux_style)
        self.registry_a = self.k_a.create_task("registryA", privileged=True)
        self.registry_b = self.k_b.create_task("registryB", privileged=True)
        self.app_a = self.k_a.create_task("appA")
        self.app_b = self.k_b.create_task("appB")

    def channel_pair(self):
        """Channels for an A:5000 <-> B:80 connection."""
        chan_a = self.run(
            self.io_a.create_channel(
                self.registry_a,
                self.app_a,
                tcp_send_template(IP_A, 5000, IP_B, 80),
                local_ip=IP_A, local_port=5000,
                remote_ip=IP_B, remote_port=80,
                link_dst=MAC_B,
            )
        )
        chan_b = self.run(
            self.io_b.create_channel(
                self.registry_b,
                self.app_b,
                tcp_send_template(IP_B, 80, IP_A, 5000),
                local_ip=IP_B, local_port=80,
                remote_ip=IP_A, remote_port=5000,
                link_dst=MAC_A,
            )
        )
        return chan_a, chan_b

    def run(self, generator):
        return self.sim.run(until=self.sim.process(generator))


def test_create_channel_requires_privilege():
    world = EthWorld()
    with pytest.raises(SecurityViolation):
        world.run(
            world.io_a.create_channel(
                world.app_a,  # Not privileged.
                world.app_a,
                tcp_send_template(IP_A, 5000, IP_B, 80),
            )
        )


def test_channel_region_is_mapped_and_pinned():
    world = EthWorld()
    chan_a, _ = world.channel_pair()
    assert chan_a.region.pinned
    assert chan_a.region.is_mapped(world.app_a)


def test_send_and_demux_to_peer_channel():
    world = EthWorld()
    chan_a, chan_b = world.channel_pair()
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def scenario():
        yield from world.io_a.send(world.app_a, chan_a, packet)
        batch = yield from chan_b.receive_batch()
        return batch

    batch = world.run(scenario())
    assert batch == [packet]
    assert world.io_b.stats["rx_demuxed"] == 1
    assert world.io_b.stats["rx_to_kernel"] == 0


def test_send_by_non_owner_refused():
    world = EthWorld()
    chan_a, _ = world.channel_pair()
    intruder = world.k_a.create_task("intruder")
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def attack():
        with pytest.raises(SecurityViolation):
            yield from world.io_a.send(intruder, chan_a, packet)

    world.run(attack())
    assert world.io_a.stats["tx_refused"] == 1


def test_impersonation_blocked_by_template():
    world = EthWorld()
    chan_a, _ = world.channel_pair()
    # appA tries to send with a spoofed source port through its channel.
    spoofed = ip_packet(IP_A, IP_B, 6000, 80)

    def attack():
        with pytest.raises(TemplateViolation):
            yield from world.io_a.send(world.app_a, chan_a, spoofed)

    world.run(attack())
    assert world.io_a.stats["tx_refused"] == 1
    assert world.io_a.stats["tx"] == 0


def test_unauthorized_traffic_goes_to_kernel_not_channel():
    """Traffic for a connection no channel owns lands in the kernel
    consumer — an application can never read another's packets."""
    world = EthWorld()
    chan_a, chan_b = world.channel_pair()
    kernel_got = []

    def kernel_rx(ethertype, payload, link_src, done):
        kernel_got.append(payload)
        done()

    world.io_b.kernel_rx = kernel_rx
    # A different connection's packet (port 9999, no channel).
    stray = ip_packet(IP_A, IP_B, 5000, 9999)

    def scenario():
        yield from world.io_a.kernel_send(stray, MAC_B)

    world.run(scenario())
    world.sim.run()
    assert kernel_got == [stray]
    assert len(chan_b.rx_queue) == 0


def test_notification_batching_amortizes_signals():
    world = EthWorld()
    chan_a, chan_b = world.channel_pair()
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def sender():
        for _ in range(8):
            yield from world.io_a.send(world.app_a, chan_a, packet)

    world.run(sender())
    world.sim.run()  # Let deliveries finish; nobody drains yet.
    assert chan_b.stats["delivered"] == 8
    assert chan_b.stats["signals"] == 1  # One signal covered all 8.

    def reader():
        batch = yield from chan_b.receive_batch()
        return batch

    batch = world.run(reader())
    assert len(batch) == 8
    assert chan_b.mean_batch_size == 8.0


def test_signal_charged_only_on_first_packet_of_batch():
    world = EthWorld(costs=DECSTATION_5000_200)
    chan_a, chan_b = world.channel_pair()
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def sender():
        for _ in range(5):
            yield from world.io_a.send(world.app_a, chan_a, packet)

    world.run(sender())
    world.sim.run()
    assert world.io_b.stats["signals_charged"] == 1


def test_channel_destroy_and_reuse_refused():
    world = EthWorld()
    chan_a, chan_b = world.channel_pair()
    world.io_a.destroy_channel(world.registry_a, chan_a)
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def attempt():
        with pytest.raises(SecurityViolation):
            yield from world.io_a.send(world.app_a, chan_a, packet)

    world.run(attempt())


def test_destroy_channel_permission():
    world = EthWorld()
    chan_a, _ = world.channel_pair()
    other = world.k_a.create_task("other")
    with pytest.raises(SecurityViolation):
        world.io_a.destroy_channel(other, chan_a)
    # The owner itself may destroy.
    world.io_a.destroy_channel(world.app_a, chan_a)
    assert chan_a.closed


def test_receive_on_closed_channel_raises():
    world = EthWorld()
    chan_a, chan_b = world.channel_pair()

    def reader():
        with pytest.raises(ChannelClosed):
            yield from chan_b.receive_batch()
        return True

    reader_proc = world.sim.process(reader())
    world.sim.run_all(limit=0.0)
    world.io_b.destroy_channel(world.registry_b, chan_b)
    assert world.sim.run(until=reader_proc)


def test_interpreted_demux_charges_per_program():
    world = EthWorld(costs=DECSTATION_5000_200, demux_style="cspf")
    chan_a, chan_b = world.channel_pair()
    packet = ip_packet(IP_A, IP_B, 5000, 80)
    before = world.k_b.cpu.busy_time

    def scenario():
        yield from world.io_a.send(world.app_a, chan_a, packet)
        yield from chan_b.receive_batch()

    world.run(scenario())
    costs = DECSTATION_5000_200
    spent = world.k_b.cpu.busy_time - before
    program_cost = chan_b.demux_filter.interpretation_cost(costs)
    # The interpreted program cost appears in B's receive path.
    assert spent >= program_cost
    assert program_cost > costs.sw_demux


# ----------------------------------------------------------------------
# AN1 hardware demux path
# ----------------------------------------------------------------------


class An1World:
    def __init__(self, costs=FREE):
        self.sim = Simulator()
        self.link = An1Link(self.sim)
        self.k_a = Kernel(self.sim, costs, name="A")
        self.k_b = Kernel(self.sim, costs, name="B")
        self.nic_a = An1Nic(self.k_a, self.link, station=1, name="an1A")
        self.nic_b = An1Nic(self.k_b, self.link, station=2, name="an1B")
        self.io_a = NetworkIoModule(self.k_a, self.nic_a)
        self.io_b = NetworkIoModule(self.k_b, self.nic_b)
        self.registry_a = self.k_a.create_task("registryA", privileged=True)
        self.registry_b = self.k_b.create_task("registryB", privileged=True)
        self.app_a = self.k_a.create_task("appA")
        self.app_b = self.k_b.create_task("appB")

    def run(self, generator):
        return self.sim.run(until=self.sim.process(generator))


def test_an1_channel_uses_hardware_ring():
    world = An1World()
    chan_b = world.run(
        world.io_b.create_channel(
            world.registry_b,
            world.app_b,
            tcp_send_template(IP_B, 80, IP_A, 5000),
            local_ip=IP_B, local_port=80,
            remote_ip=IP_A, remote_port=5000,
            link_dst=1,
        )
    )
    assert chan_b.ring is not None
    assert chan_b.ring.bqi > 0
    # Create the sender channel stamped with b's BQI.
    chan_a = world.run(
        world.io_a.create_channel(
            world.registry_a,
            world.app_a,
            tcp_send_template(IP_A, 5000, IP_B, 80),
            local_ip=IP_A, local_port=5000,
            remote_ip=IP_B, remote_port=80,
            link_dst=2,
            peer_bqi=chan_b.ring.bqi,
        )
    )
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def scenario():
        yield from world.io_a.send(world.app_a, chan_a, packet)
        batch = yield from chan_b.receive_batch()
        return batch

    batch = world.run(scenario())
    assert batch == [packet]
    assert chan_b.ring.stats["delivered"] == 1
    # Hardware demux: the software-filter path never ran.
    assert chan_b.demux_filter is None


def test_an1_ring_replenished_by_receive_batch():
    world = An1World()
    chan_b = world.run(
        world.io_b.create_channel(
            world.registry_b, world.app_b,
            tcp_send_template(IP_B, 80, IP_A, 5000),
            local_ip=IP_B, local_port=80,
            remote_ip=IP_A, remote_port=5000, link_dst=1,
        )
    )
    chan_a = world.run(
        world.io_a.create_channel(
            world.registry_a, world.app_a,
            tcp_send_template(IP_A, 5000, IP_B, 80),
            local_ip=IP_A, local_port=5000,
            remote_ip=IP_B, remote_port=80, link_dst=2,
            peer_bqi=chan_b.ring.bqi,
        )
    )
    capacity = chan_b.ring.capacity
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def scenario():
        for _ in range(3):
            yield from world.io_a.send(world.app_a, chan_a, packet)
        batch = yield from chan_b.receive_batch()
        return batch

    batch = world.run(scenario())
    world.sim.run()
    assert len(batch) >= 1
    # All buffers the batch consumed were handed back.
    assert chan_b.ring.available == capacity - (3 - len(batch))


def test_an1_bqi_zero_goes_to_kernel():
    world = An1World()
    kernel_got = []

    def kernel_rx(ethertype, payload, link_src, done):
        kernel_got.append((ethertype, payload))
        done()

    world.io_b.kernel_rx = kernel_rx
    packet = ip_packet(IP_A, IP_B, 5000, 80)

    def scenario():
        yield from world.io_a.kernel_send(packet, 2, bqi=0)

    world.run(scenario())
    world.sim.run()
    assert kernel_got == [(ETHERTYPE_IP, packet)]


def test_an1_channel_teardown_releases_bqi():
    world = An1World()
    chan_b = world.run(
        world.io_b.create_channel(
            world.registry_b, world.app_b,
            tcp_send_template(IP_B, 80, IP_A, 5000),
            local_ip=IP_B, local_port=80,
            remote_ip=IP_A, remote_port=5000, link_dst=1,
        )
    )
    bqi = chan_b.ring.bqi
    assert bqi in world.nic_b.bqi_table
    world.io_b.destroy_channel(world.registry_b, chan_b)
    assert bqi not in world.nic_b.bqi_table


# ----------------------------------------------------------------------
# The interrupt-context contract: ``done()`` exactly once on every exit
# ----------------------------------------------------------------------


def eth_frame(packet, ethertype=ETHERTYPE_IP):
    return EthernetHeader(MAC_B, MAC_A, ethertype).pack() + packet


def rx_once(world, frame, context=None):
    """Feed one frame to B's receive handler; how often it said done."""
    calls = []
    world.io_b._rx_handler(frame, context, lambda: calls.append(world.sim.now))
    world.sim.run()
    return calls


def holding_consumer(world):
    """A kernel consumer that keeps ``done`` instead of calling it."""
    held = []
    world.io_b.kernel_rx = lambda ethertype, payload, link_info, done: held.append(
        (ethertype, bytes(payload), done)
    )
    return held


def test_rx_handler_truncated_frame_is_dropped_and_done():
    world = EthWorld(costs=DECSTATION_5000_200)
    assert len(rx_once(world, b"\x02" * 10)) == 1
    assert world.io_b.stats["rx_dropped"] == 1


@pytest.mark.parametrize("ethertype", [0x0806, ETHERTYPE_IP])
def test_rx_handler_without_kernel_consumer_drops_and_is_done(ethertype):
    world = EthWorld(costs=DECSTATION_5000_200)
    frame = eth_frame(ip_packet(IP_A, IP_B, 5000, 9999), ethertype)
    assert len(rx_once(world, frame)) == 1
    assert world.io_b.stats["rx_dropped"] == 1
    assert world.io_b.stats["rx_to_kernel"] == 0


@pytest.mark.parametrize("ethertype", [0x0806, ETHERTYPE_IP])
def test_rx_handler_leaves_done_to_the_kernel_consumer(ethertype):
    """Non-IP frames and demux misses: the consumer owns ``done``."""
    world = EthWorld(costs=DECSTATION_5000_200)
    held = holding_consumer(world)
    packet = ip_packet(IP_A, IP_B, 5000, 9999)
    calls = rx_once(world, eth_frame(packet, ethertype))
    assert calls == []  # Not the module's to call.
    (got_type, got_payload, done), = held
    assert (got_type, got_payload) == (ethertype, packet)
    done()
    assert len(calls) == 1
    assert world.io_b.stats["rx_to_kernel"] == 1


def test_rx_handler_demux_hit_is_done_after_the_signal_charge():
    costs = DECSTATION_5000_200
    world = EthWorld(costs=costs)
    chan_a, chan_b = world.channel_pair()
    held = holding_consumer(world)
    start = world.sim.now
    calls = rx_once(world, eth_frame(ip_packet(IP_A, IP_B, 5000, 80)))
    assert held == [] and chan_b.stats["delivered"] == 1
    assert calls == [
        pytest.approx(
            start + costs.flow_lookup + costs.eth_user_delivery
            + costs.semaphore_signal
        )
    ]
    # A second frame rides the pending notification: no signal charge.
    start = world.sim.now
    calls = rx_once(world, eth_frame(ip_packet(IP_A, IP_B, 5000, 80)))
    assert calls == [
        pytest.approx(start + costs.flow_lookup + costs.eth_user_delivery)
    ]
    assert world.io_b.stats["signals_charged"] == 1


def test_rx_handler_tenant_refused_delivery_is_done():
    world = EthWorld(costs=DECSTATION_5000_200)
    manager = TenantManager()
    world.io_b.tenants = manager
    victim = manager.create_tenant("victim")
    thief = manager.create_tenant("thief")
    manager.bind_task(world.app_b, victim)
    chan_a, chan_b = world.channel_pair()
    # The channel crosses the tenant boundary after the flow was
    # installed for its first owner.
    chan_b.owner = world.k_b.create_task("thief-app")
    manager.bind_task(chan_b.owner, thief)
    assert len(rx_once(world, eth_frame(ip_packet(IP_A, IP_B, 5000, 80)))) == 1
    assert world.io_b.stats["rx_refused"] == 1
    assert chan_b.stats["delivered"] == 0
    assert [entry[-1] for entry in manager.delivery_log] == [False]
    assert manager.audit["cross_tenant_delivery_blocked"] == 1


def test_rx_handler_an1_channel_ring_is_done():
    world = An1World(costs=DECSTATION_5000_200)
    chan_b = world.run(
        world.io_b.create_channel(
            world.registry_b, world.app_b,
            tcp_send_template(IP_B, 80, IP_A, 5000),
            local_ip=IP_B, local_port=80,
            remote_ip=IP_A, remote_port=5000, link_dst=1,
        )
    )
    held = holding_consumer(world)
    packet = ip_packet(IP_A, IP_B, 5000, 80)
    frame = An1Header(2, 1, ETHERTYPE_IP, chan_b.ring.bqi).pack() + packet
    assert len(rx_once(world, frame, chan_b.ring)) == 1
    assert held == [] and list(chan_b.rx_queue) == [packet]


def test_rx_handler_an1_kernel_ring_replenished_only_after_done():
    world = An1World(costs=DECSTATION_5000_200)
    held = holding_consumer(world)
    ring = world.nic_b.bqi_table[0]
    packet = ip_packet(IP_A, IP_B, 5000, 80)
    frame = An1Header(2, 1, ETHERTYPE_IP, 0).pack() + packet
    assert ring.take()  # What the controller does on arrival.
    calls = rx_once(world, frame, ring)
    assert calls == [] and ring.available == ring.capacity - 1
    (_, got_payload, done), = held
    assert got_payload == packet
    done()
    assert len(calls) == 1 and ring.available == ring.capacity


# ----------------------------------------------------------------------
# The host's kernel consumer under the same contract
# ----------------------------------------------------------------------


class HostPair:
    def __init__(self):
        self.sim = Simulator()
        link = EthernetLink(self.sim)
        self.a = Host(self.sim, link, "a", IP_A, MAC_A)
        self.b = Host(self.sim, link, "b", IP_B, MAC_B)
        self.link_info = LinkInfo(MAC_A)

    def kernel_rx_once(self, ethertype, payload):
        calls = []
        self.b._kernel_rx(
            ethertype, payload, self.link_info, lambda: calls.append(self.sim.now)
        )
        self.sim.run()
        return calls


def udp_packet(dport, payload=b"data"):
    wire = encode_datagram(4444, dport, payload, IP_A, IP_B)
    return Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_UDP,
        total_length=Ipv4Header.LENGTH + len(wire),
    ).pack() + bytes(wire)


def icmp_echo_packet():
    echo = encode_echo(True, ident=1, seq=1, payload=b"ping")
    return Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_ICMP,
        total_length=Ipv4Header.LENGTH + len(echo),
    ).pack() + echo


def test_kernel_rx_is_done_once_on_every_exit():
    pair = HostPair()
    got = []
    pair.b.udp_ports.bind(53, got.append)
    request = ArpPacket(ARP_REQUEST, MAC_A, IP_A, bytes(6), IP_B).pack()
    exits = {
        "arp request (answered on the wire)": (ETHERTYPE_ARP, request),
        "arp garbage": (ETHERTYPE_ARP, b"\x00" * 5),
        "unknown ethertype": (0x88B5, b"whatever"),
        "bad ip header": (ETHERTYPE_IP, b"\x45" + b"\x00" * 30),
        "udp to a bound port": (ETHERTYPE_IP, udp_packet(53)),
        "udp to a closed port (unreachable sent)": (ETHERTYPE_IP, udp_packet(9)),
        "tcp with no organization attached": (
            ETHERTYPE_IP, ip_packet(IP_A, IP_B, 5000, 80)
        ),
        "icmp echo (answered on the wire)": (ETHERTYPE_IP, icmp_echo_packet()),
    }
    for name, (ethertype, payload) in exits.items():
        assert len(pair.kernel_rx_once(ethertype, payload)) == 1, name
    assert len(got) == 1
    # ARP reply, port-unreachable and echo reply all left the host.
    assert pair.b.nic.stats["tx_frames"] == 3

    def failing_tcp_input(payload, src_ip, link_info):
        yield pair.sim.timeout(1e-3)
        raise RuntimeError("organization bug")

    # A kernel thread that dies still lets go of the interface.
    pair.b.tcp_kernel_handler = failing_tcp_input
    tcp = ip_packet(IP_A, IP_B, 5000, 80)
    assert len(pair.kernel_rx_once(ETHERTYPE_IP, tcp)) == 1


def test_kernel_consumer_that_transmits_holds_the_next_frame_back():
    """The interface takes its next frame only when the echo reply has
    been handed to the device, as when the whole path was one process."""
    pair = HostPair()
    seen = []
    pair.b.udp_ports.bind(
        53, lambda datagram: seen.append(pair.b.nic.stats["tx_frames"])
    )
    nic = pair.b.nic
    nic.wire_deliver(eth_frame(icmp_echo_packet()))
    nic.wire_deliver(eth_frame(udp_packet(53)))
    pair.sim.run()
    assert seen == [1]
    assert nic.stats["rx_frames"] == 2 and not nic._rx_interrupt_pending
