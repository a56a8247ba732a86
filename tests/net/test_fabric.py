"""Unit tests for the switched fabric: links, queues, switches, routes."""

from types import SimpleNamespace

import pytest

from repro.net.fabric import (
    RedQueue,
    RouteTable,
    Switch,
    TailDropQueue,
    chain,
    dumbbell,
    prefix_mask,
)
from repro.net.faults import FaultInjector
from repro.net.headers import (
    ETHERTYPE_IP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    str_to_ip,
)
from repro.net.link import DuplexLink, EthernetLink, Transmitter
from repro.netio.module import LinkInfo
from repro.protocols.icmp import encode_echo
from repro.sim import Simulator


class FakeNic:
    """Minimal link endpoint for link-level tests."""

    def __init__(self, link, name):
        self.name = name
        self.received = []
        link.attach(self)

    def accepts(self, frame):
        return True

    def wire_deliver(self, frame, _event=None):
        self.received.append(frame)


# ----------------------------------------------------------------------
# Link satellite fixes: attach guard, fault accounting
# ----------------------------------------------------------------------


def test_attach_rejects_double_attach():
    sim = Simulator()
    link = EthernetLink(sim)
    nic = FakeNic(link, "a")
    with pytest.raises(ValueError):
        link.attach(nic)


def test_link_counts_injected_faults():
    sim = Simulator()
    faults = FaultInjector(drop_rate=1.0, seed=1)
    link = DuplexLink(sim, faults=faults)
    sender = FakeNic(link, "tx")
    receiver = FakeNic(link, "rx")
    Transmitter(link, sender).submit(b"x" * 100)
    sim.run(until=0.1)
    assert receiver.received == []
    # The plan's outcome is counted once, in the link's injector.
    assert link.faults.stats["dropped"] == 1
    assert link.faults.stats["corrupted"] == 0
    assert link.stats["frames"] == 1

    faults2 = FaultInjector(corrupt_rate=1.0, duplicate_rate=1.0, seed=2)
    link2 = DuplexLink(sim, faults=faults2)
    sender2 = FakeNic(link2, "tx2")
    receiver2 = FakeNic(link2, "rx2")
    Transmitter(link2, sender2).submit(b"y" * 100)
    sim.run(until=0.2)
    assert link2.faults.stats["corrupted"] == 1
    assert link2.faults.stats["duplicated"] == 1
    assert len(receiver2.received) == 2  # Original + duplicate.


# ----------------------------------------------------------------------
# Egress queues
# ----------------------------------------------------------------------


def test_taildrop_queue_drops_at_capacity():
    sim = Simulator()
    queue = TailDropQueue(sim, capacity_bytes=1000)
    frame = b"z" * 400
    assert queue.offer(frame)
    assert queue.offer(frame)
    assert not queue.offer(frame)  # 1200 > 1000: tail drop.
    assert queue.stats["dropped"] == 1
    assert queue.stats["dropped_bytes"] == 400
    assert queue.depth_bytes == 800
    assert queue.peak_bytes == 800
    # Draining frees capacity again.
    assert queue.pop() == frame
    assert queue.depth_bytes == 400
    assert queue.stats["dequeued"] == 1
    assert queue.offer(frame)
    assert 0.0 < queue.mean_occupancy() < 1.0
    assert queue.pop() == frame and queue.pop() == frame
    assert queue.pop() is None  # Empty: nothing to hand over.
    assert queue.stats["dequeued"] == 3


def test_queue_hands_frame_to_waiting_getter():
    """The waiting getter is the port's idle transmitter (it was an
    event the port's transmit process parked on)."""
    sim = Simulator()
    link = DuplexLink(sim)
    port = FakeNic(link, "port")
    peer = FakeNic(link, "peer")
    queue = TailDropQueue(sim, capacity_bytes=1000)
    queue.transmitter = Transmitter(link, port, pull=queue.pop)
    # Transmitter idle before any arrival: the frame goes straight to
    # the wire and never occupies the queue.
    assert queue.offer(b"hello")
    assert queue.transmitter.busy
    assert queue.depth_bytes == 0 and queue.peak_bytes == 0
    assert queue.stats["enqueued"] == 1 and queue.stats["dequeued"] == 1
    # While that frame is on the wire, arrivals do queue...
    assert queue.offer(b"world")
    assert queue.depth_bytes == 5 and queue.peak_bytes == 5
    assert queue.stats["dequeued"] == 1
    # ...and the transmitter pulls them, in order, as each turn ends.
    sim.run()
    assert peer.received == [b"hello", b"world"]
    assert queue.depth_bytes == 0 and queue.peak_bytes == 5
    assert queue.stats["dequeued"] == 2
    assert not queue.transmitter.busy


def test_red_queue_early_drops_between_thresholds():
    sim = Simulator()
    queue = RedQueue(
        sim, capacity_bytes=10_000, min_th=2_000, max_th=8_000, seed=3
    )
    frame = b"r" * 500
    outcomes = [queue.offer(frame) for _ in range(40)]
    assert not all(outcomes)  # Some arrival was shed early.
    # ``early_dropped`` only counts probabilistic sheds taken while
    # physical space remained — proof RED acted before the queue filled.
    assert queue.stats["early_dropped"] > 0
    assert queue.discipline == "red"


def test_red_queue_still_taildrops_when_full():
    sim = Simulator()
    # max_p=0 disables probabilistic drops below max_th.
    queue = RedQueue(
        sim, capacity_bytes=2_000, min_th=500, max_th=2_000, max_p=0.0, seed=0
    )
    frame = b"f" * 400
    results = [queue.offer(frame) for _ in range(6)]
    assert results[:5] == [True] * 5
    assert results[5] is False
    assert queue.stats["dropped"] >= 1


# ----------------------------------------------------------------------
# Route tables
# ----------------------------------------------------------------------


def test_route_table_longest_prefix_match():
    table = RouteTable()
    table.add_default(str_to_ip("10.0.0.254"))
    table.add(str_to_ip("10.1.0.0"), 16, str_to_ip("10.0.0.1"))
    table.add(str_to_ip("10.1.2.0"), 24, str_to_ip("10.0.0.2"))

    assert table.lookup(str_to_ip("10.1.2.9")).gateway == str_to_ip("10.0.0.2")
    assert table.lookup(str_to_ip("10.1.9.9")).gateway == str_to_ip("10.0.0.1")
    assert table.lookup(str_to_ip("8.8.8.8")).gateway == str_to_ip("10.0.0.254")


def test_route_table_next_hop_gateway_vs_onlink():
    table = RouteTable()
    table.add(str_to_ip("10.0.0.0"), 24)  # Connected: no gateway.
    table.add_default(str_to_ip("10.0.0.254"))
    on_link = str_to_ip("10.0.0.7")
    far = str_to_ip("192.168.1.1")
    assert table.next_hop(on_link) == on_link
    assert table.next_hop(far) == str_to_ip("10.0.0.254")


def test_prefix_mask_bounds():
    assert prefix_mask(0) == 0
    assert prefix_mask(24) == 0xFFFFFF00
    assert prefix_mask(32) == 0xFFFFFFFF
    with pytest.raises(ValueError):
        prefix_mask(33)


# ----------------------------------------------------------------------
# Switch behaviour
# ----------------------------------------------------------------------


def test_switch_floods_unknown_then_unicasts_learned():
    sim = Simulator()
    topo = dumbbell(sim, 2, edge_rate=10e6)
    h0, h1 = topo.clients  # Both on the left switch; the trunk is port 0.
    bystander = topo.servers[0]
    switch = topo.switches[0]

    def pinger():
        yield from h0.ip_send(h1.ip, PROTO_ICMP, encode_echo(True, 1, 1))

    sim.process(pinger())
    sim.run(until=0.5)

    # The reply made it back, so the whole exchange worked.
    assert h0.ip_stack.stats["received"] == 1
    assert h1.ip_stack.stats["received"] == 1
    # Only the broadcast ARP request was flooded; every subsequent
    # frame went out exactly one learned port.
    assert switch.stats["flooded"] == 1
    assert switch.stats["forwarded"] == 3  # ARP reply, echo, echo reply.
    # The bystander, across the trunk, saw the flood and nothing else.
    assert bystander.nic.stats["rx_frames"] == 1
    assert sorted(port.index for port, _ in switch._macs.values()) == [1, 2]


def test_switch_filters_same_port_destination():
    """A frame whose destination was learned on the ingress port is
    dropped, not echoed back out."""
    sim = Simulator()
    switch = Switch(sim, "sw")
    shared = DuplexLink(sim)  # Both fake stations reach port 0.
    port = switch.add_port(shared)
    switch._learn(b"\x02" + b"\x00" * 5, port)
    switch._learn(b"\x04" + b"\x00" * 5, port)
    from repro.net.headers import ETHERTYPE_IP, EthernetHeader

    frame = EthernetHeader(
        dst=b"\x02" + b"\x00" * 5, src=b"\x04" + b"\x00" * 5,
        ethertype=ETHERTYPE_IP,
    ).pack() + b"p"
    switch._ingress(port, frame)
    assert switch.stats["filtered"] == 1
    assert port.queue.depth_bytes == 0


def test_saturated_port_tail_drops():
    """Two senders blasting one receiver oversubscribe its edge port
    2:1; the drops land there and nowhere else."""
    sim = Simulator()
    topo = dumbbell(sim, 3, edge_rate=10e6)
    h0, h1, h2 = topo.clients
    switch = topo.switches[0]
    payload = b"u" * 1400

    def blast(src):
        mac = yield from src.resolve_link(h2.ip)
        for _ in range(100):
            yield from src.ip_send(h2.ip, PROTO_UDP, payload, link_dst=mac)

    sim.process(blast(h0))
    sim.process(blast(h1))
    sim.run(until=2.0)

    victim_port = switch.ports[3]  # h2's edge; port 0 is the trunk.
    assert victim_port.queue.stats["dropped"] > 0
    for port in switch.ports:
        if port is not victim_port:
            assert port.queue.stats["dropped"] == 0
    # The queue saw deep occupancy while saturated.
    assert victim_port.queue.peak_bytes > victim_port.queue.capacity // 2


def test_switch_ignores_malformed_frames():
    sim = Simulator()
    switch = Switch(sim, "sw")
    port = switch.add_port(DuplexLink(sim))
    switch._ingress(port, b"short")
    assert switch.stats["malformed"] == 1
    assert switch.stats["frames"] == 0


# ----------------------------------------------------------------------
# Router input validation
# ----------------------------------------------------------------------


def test_router_drops_packets_whose_total_length_lies():
    """A valid header checksum says nothing about ``total_length``: a
    router must not forward a packet that claims fewer bytes than its
    own header, nor one that claims more bytes than arrived."""
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    router = topo.routers[0]
    iface = router.interfaces[0]
    consumed = []

    def arrive(total_length):
        header = Ipv4Header(
            src=host_a.ip, dst=host_b.ip, protocol=PROTO_UDP,
            total_length=total_length,
        )
        packet = header.pack() + b"x" * 30
        router._rx(
            iface, ETHERTYPE_IP, packet, LinkInfo(host_a.nic.mac),
            lambda: consumed.append(total_length),
        )

    arrive(5)    # Below the header length.
    arrive(51)   # One byte more than arrived.
    sim.run(until=0.1)
    assert router.stats["bad_header"] == 2
    assert router.stats["forwarded"] == 0
    assert host_b.ip_stack.stats["received"] == 0

    arrive(50)   # The control: an honest packet still goes through.
    sim.run(until=0.2)
    assert router.stats["bad_header"] == 2
    assert host_b.ip_stack.stats["received"] == 1
    assert consumed == [5, 51, 50]  # ``done`` once each, dropped or not.


#: An ethertype neither IP nor ARP (IEEE 802 local experimental).
FOREIGN_ETHERTYPE = 0x88B5


def _corrupted_and_foreign(topo):
    """The two frames no receiver may lose without a reason: an IPv4
    packet whose header checksum a flipped TTL bit broke, and a frame of
    an ethertype nobody speaks."""
    host_a, host_b = topo.hosts
    packet = bytearray(Ipv4Header(
        src=host_a.ip, dst=host_b.ip, protocol=PROTO_UDP,
        total_length=Ipv4Header.LENGTH + 30,
    ).pack() + b"x" * 30)
    packet[8] ^= 0x01
    return (
        ("corrupted", ETHERTYPE_IP, bytes(packet)),
        ("foreign", FOREIGN_ETHERTYPE, b"\x00" * 46),
    )


def test_router_books_every_frame_it_drops_before_forwarding():
    """``Router._rx`` used to drop an unparseable IPv4 header and a
    non-IP, non-ARP frame without a trace.  Each is booked under its
    reason, and the interface is released once per frame."""
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    router = topo.routers[0]
    consumed = []
    for tag, ethertype, payload in _corrupted_and_foreign(topo):
        router._rx(
            router.interfaces[0], ethertype, payload,
            LinkInfo(host_a.nic.mac), lambda tag=tag: consumed.append(tag),
        )
    sim.run(until=0.1)
    assert router.stats["bad_header"] == 1
    assert router.stats["unknown_ethertype"] == 1
    assert router.stats["forwarded"] == 0
    assert host_b.ip_stack.stats["received"] == 0
    assert consumed == ["corrupted", "foreign"]


def test_host_books_every_frame_its_kernel_drops():
    """``Host._kernel_rx`` dropped a non-IP, non-ARP frame without a
    trace; now the host books it.  A broken IPv4 header is the IP
    layer's to book, as ``bad_header`` — the router's label for the same
    failures.  ``done`` runs once per frame."""
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    consumed = []
    for tag, ethertype, payload in _corrupted_and_foreign(topo):
        host_b._kernel_rx(
            ethertype, payload, LinkInfo(host_a.nic.mac),
            lambda tag=tag: consumed.append(tag),
        )
    sim.run(until=0.1)
    assert host_b.ip_stack.stats["bad_header"] == 1
    assert host_b.stats["unknown_ethertype"] == 1
    assert host_b.ip_stack.stats["received"] == 0
    assert consumed == ["corrupted", "foreign"]


def test_a_packet_no_protocol_takes_is_booked():
    """A host with no TCP consumer, and a router, which answers ICMP
    echo only, book a packet addressed to them that nothing takes as
    ``no_protocol``."""
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    router = topo.routers[0]
    iface = router.interfaces[0]
    consumed = []

    def tcp_to(dst):
        return Ipv4Header(
            src=host_a.ip, dst=dst, protocol=PROTO_TCP,
            total_length=Ipv4Header.LENGTH + 20,
        ).pack() + bytes(20)

    host_b._kernel_rx(
        ETHERTYPE_IP, tcp_to(host_b.ip), LinkInfo(host_a.nic.mac),
        lambda: consumed.append("host"),
    )
    router._rx(
        iface, ETHERTYPE_IP, tcp_to(iface.ip), LinkInfo(host_a.nic.mac),
        lambda: consumed.append("router"),
    )
    sim.run(until=0.1)
    assert host_b.stats["no_protocol"] == 1
    assert router.stats["no_protocol"] == 1
    assert sorted(consumed) == ["host", "router"]


# ----------------------------------------------------------------------
# Router input queue: one forwarding job in flight, a deque behind it
# ----------------------------------------------------------------------


def _forwardable(topo, ident):
    host_a, host_b = topo.hosts
    header = Ipv4Header(
        src=host_a.ip, dst=host_b.ip, protocol=PROTO_UDP,
        total_length=Ipv4Header.LENGTH + 30, ident=ident,
    )
    return header.pack() + b"x" * 30


def test_idle_router_takes_a_packet_without_using_a_slot():
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    router = topo.routers[0]
    iface = router.interfaces[0]
    link_info = LinkInfo(topo.hosts[0].nic.mac)
    assert not router.forwarding and not router._input
    consumed = []
    limit = router.INPUT_QUEUE_PACKETS
    # The first job's ``ip_forward`` charge queues behind every
    # ``ip_input`` charged here, so it ends nothing meanwhile: the first
    # packet starts the job without a slot, ``limit`` more fill the
    # queue, one is shed.
    for ident in range(limit + 2):
        router._rx(
            iface, ETHERTYPE_IP, _forwardable(topo, ident), link_info,
            lambda ident=ident: consumed.append(ident),
        )
    sim.run(until=sim.now + router.kernel.costs.ip_input * (limit + 2) * 1.5)
    assert consumed == list(range(limit + 2))
    assert router.stats["input_dropped"] == 1
    sim.run(until=5.0)
    assert topo.hosts[1].ip_stack.stats["received"] == limit + 1
    assert not router.forwarding and not router._input


def test_packets_behind_an_arp_miss_stay_queued_in_arrival_order():
    """The first job misses in the router's ARP cache: its resolution
    holds the router, and the packets behind it wait in the queue —
    none is forwarded, none is dropped — until the reply lands; then
    all leave, in the order they arrived."""
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    router = topo.routers[0]
    wire = []

    def offered(frame):
        if frame[12:14] == b"\x08\x06":
            wire.append("arp")
        elif frame[23] == PROTO_UDP:
            wire.append(int.from_bytes(frame[18:20], "big"))

    topo.links[-1].watchers.append(
        SimpleNamespace(offered=offered, planned=lambda frame, plan: None)
    )
    for ident in range(1, 6):
        router._rx(
            router.interfaces[0], ETHERTYPE_IP, _forwardable(topo, ident),
            LinkInfo(host_a.nic.mac), lambda: None,
        )
    # Until the ARP request has gone out and its reply come back, but
    # before the resolver's next poll finds it.
    while "arp" not in wire:
        sim.run(until=sim.now + 1e-5)
    sim.run(until=sim.now + 0.4e-3)
    assert wire == ["arp", "arp"]  # The request, and host B's reply.
    assert router.forwarding and len(router._input) == 4
    assert router.stats["forwarded"] == 0
    sim.run(until=5.0)
    assert wire == ["arp", "arp", 1, 2, 3, 4, 5]
    assert router.stats["input_dropped"] == 0
    assert host_b.ip_stack.stats["received"] == 5
    assert not router.forwarding and not router._input


def test_router_queue_neither_loses_nor_reorders():
    sim = Simulator()
    topo = chain(sim, n_routers=1)
    host_a, host_b = topo.hosts
    router = topo.routers[0]
    forwarded = []

    def offered(frame):
        if frame[12:14] == b"\x08\x00" and frame[23] == PROTO_UDP:
            forwarded.append(int.from_bytes(frame[18:20], "big"))

    topo.links[-1].watchers.append(
        SimpleNamespace(offered=offered, planned=lambda frame, plan: None)
    )
    for ident in range(1, 41):
        router._rx(
            router.interfaces[0], ETHERTYPE_IP, _forwardable(topo, ident),
            LinkInfo(host_a.nic.mac), lambda: None,
        )
    sim.run(until=5.0)
    assert router.stats["input_dropped"] == 0
    assert forwarded == list(range(1, 41))
    assert host_b.ip_stack.stats["received"] == 40
