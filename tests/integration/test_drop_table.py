"""netstat's drop table: every frame a run discards is in it once, under
a named reason, on the node that discarded it."""

import pytest

from repro import netstat
from repro.net.fabric import fat_tree
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.headers import ETHERTYPE_IP, PROTO_UDP, str_to_mac
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator
from repro.testbed import IP_B, Testbed
from repro.trace import WireTrace


class CorruptFirstData(FaultInjector):
    """Flips one bit in the last octet of the first frame longer than a
    header-only segment: TCP payload, so only the TCP checksum sees it."""

    def __init__(self) -> None:
        super().__init__()
        self.fired = False
        self.inert = False

    def plan(self, data: bytes) -> FaultPlan:
        if self.fired or len(data) < 100:
            return FaultPlan(deliveries=((0.0, data),))
        self.fired = True
        self.stats["corrupted"] += 1
        return FaultPlan(deliveries=((0.0, self.damage(data)),), corrupted=True)

    @staticmethod
    def damage(data: bytes) -> bytes:
        return data[:-1] + bytes([data[-1] ^ 1])


class MisaddressFirstData(CorruptFirstData):
    """Flips one bit of the destination station (the frame's second
    octet, on both networks) instead: the copy names nobody on the
    segment."""

    @staticmethod
    def damage(data: bytes) -> bytes:
        return data[:1] + bytes([data[1] ^ 1]) + data[2:]


def _transfer(bed, payload=bytes(range(256)) * 4):
    """Send ``payload`` a→b over one connection."""

    def serve():
        listener = yield from bed.service_b.listen(9400)
        conn = yield from listener.accept()
        return (yield from conn.recv_exactly(len(payload)))

    def send():
        conn = yield from bed.service_a.connect(IP_B, 9400)
        yield from conn.send(payload)

    server = bed.spawn(serve(), name="serve")
    bed.spawn(send(), name="send")
    assert bed.run(until=server) == payload  # Retransmission repaired it.


@pytest.mark.parametrize("network", ["ethernet", "an1"])
@pytest.mark.parametrize("organization", ["userlib", "ultrix"])
def test_a_corrupted_segment_is_one_row_on_the_receiver(organization, network):
    faults = CorruptFirstData()
    bed = Testbed(network=network, organization=organization, faults=faults)
    _transfer(bed)
    assert faults.fired
    assert netstat.drop_table(bed) == [netstat.DropEntry(bed.host_b.name, "checksum", 1)]


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_a_frame_no_nic_accepts_is_one_row_on_the_link(network):
    """On a watched link (which plans every frame), a frame for a station
    that is not on the segment is counted ``unaddressed``."""
    bed = Testbed(network=network, organization="userlib")
    WireTrace(bed.link)
    nowhere = str_to_mac("02:00:00:00:00:63") if network == "ethernet" else 99

    def send():
        yield from bed.host_a.netio.kernel_send(bytes(46), nowhere)
        yield bed.sim.timeout(0.01)

    bed.run(until=bed.spawn(send(), name="send"))
    assert bed.link.stats["unaddressed"] == 1
    assert netstat.drop_table(bed) == [netstat.DropEntry("link0", "address", 1)]


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_a_copy_whose_destination_was_flipped_is_one_row_on_the_link(network):
    """The link filters the copy the injector planned, not the frame as
    sent: a flipped destination bit loses the copy to the address
    filters, and retransmission repairs the transfer."""
    faults = MisaddressFirstData()
    bed = Testbed(network=network, organization="userlib", faults=faults)
    _transfer(bed)
    assert faults.fired
    assert bed.link.stats["unaddressed"] == 1
    assert netstat.drop_table(bed) == [netstat.DropEntry("link0", "address", 1)]


class DuplicateFirstFragment(FaultInjector):
    """Delivers the first IPv4 frame it sees twice."""

    def __init__(self) -> None:
        super().__init__()
        self.fired = False
        self.inert = False

    def plan(self, data: bytes) -> FaultPlan:
        if self.fired or data[12:14] != ETHERTYPE_IP.to_bytes(2, "big"):
            return FaultPlan(deliveries=((0.0, data),))
        self.fired = True
        self.stats["duplicated"] += 1
        return FaultPlan(deliveries=((0.0, data), (0.0, data)))


def test_a_duplicate_fragment_is_one_row_and_the_datagram_is_whole():
    """Fragments 0, 0, 1, 2 of one UDP datagram: one reassembly, the
    second copy of fragment 0 a ``duplicate`` row, and sent +
    duplicated = delivered + drops, in fragments."""
    faults = DuplicateFirstFragment()
    bed = Testbed(network="ethernet", organization="ultrix", faults=faults)
    got = []
    bed.host_b.udp_ports.bind(9000, got.append)
    datagram = encode_datagram(9001, 9000, bytes(4000), bed.host_a.ip, IP_B)

    def send():
        yield from bed.host_a.ip_send(IP_B, PROTO_UDP, datagram)
        yield bed.sim.timeout(0.05)

    bed.run(until=bed.spawn(send(), name="send"))
    ip = bed.host_b.ip_stack.stats
    rows = netstat.drop_table(bed)
    assert len(got) == 1 and ip["reassembled"] == 1
    assert rows == [netstat.DropEntry(bed.host_b.name, "duplicate", 1)]
    sent = bed.host_a.ip_stack.stats["fragments_sent"]
    assert sent + faults.stats["duplicated"] == ip["fragments_received"] == 4
    assert ip["fragments_received"] == 3 * ip["reassembled"] + sum(row.count for row in rows)
    assert bed.host_b.ip_stack.pending_reassemblies == 0


def test_udp_fat_tree_conserves_every_datagram():
    """64 hosts, 4 flows each, 12 datagrams a flow, 2 ms pacing: the core
    saturates, and every datagram sent is delivered or in the table."""
    sim = Simulator()
    topology = fat_tree(sim, k=8, hosts_per_edge=2)
    hosts = topology.hosts
    n = len(hosts)
    received = []
    for host in hosts:
        host.udp_ports.bind(9000, received.append)

    def sender(src, dst_ip, sport):
        for seq in range(12):
            at = seq * 2e-3
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            datagram = encode_datagram(sport, 9000, bytes(64), src.ip, dst_ip)
            yield from src.ip_send(dst_ip, PROTO_UDP, datagram)

    for i, src in enumerate(hosts):
        for flow in range(4):
            dst = hosts[(i + n // 2 + flow * 2) % n]
            sim.process(sender(src, dst.ip, 9001 + flow))
    sim.run()
    rows = netstat.drop_table(topology)
    by_reason = {}
    for row in rows:
        by_reason[row.reason] = by_reason.get(row.reason, 0) + row.count
    assert n * 4 * 12 == 3072
    assert len(received) == 2745
    assert sum(row.count for row in rows) == 3072 - 2745
    # Router NICs out of board buffers, and router input queues full.
    assert by_reason == {"no buffer": 15, "input queue": 312}
    assert all(row.node.startswith(("core-", "agg-", "edge-")) for row in rows)
