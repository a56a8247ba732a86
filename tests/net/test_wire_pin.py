"""The wire, pinned: every frame two routed worlds put on their links.

Each run hashes every offered frame's ``(repr(now), link index, bytes)``
in offer order, and the digests are constants recorded before the
router's forward and the kernel's ARP and ICMP replies became chains of
CPU-charge callbacks.  A change to how the kernel datapath is driven
(a process, a callback, a same-instant event) must move no frame's
instant, order or bytes; the first test to see one move is this one.

* the 16-host fat-tree arm of ``tests/sim/test_resources.py``, from an
  ARP cold start (every host and router resolves its neighbours while
  datagrams queue behind the misses);
* a two-router ``chain`` that meets an ARP miss mid-queue (a burst to
  a closed UDP port, each drawing a port-unreachable), pings a router
  interface and the far host, expires a TTL at each router, and sends
  to no route.
"""

import hashlib

from repro.net.fabric import chain
from repro.net.headers import PROTO_ICMP, PROTO_UDP, str_to_ip
from repro.protocols.icmp import encode_echo
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator

from ..sim.test_resources import _fat_tree_arm

FAT_TREE_WIRE = "a39715cceb49bfe6251a8e97057ff01268c75f56ad38099ab7ecd951304ce1ff"
CHAIN_WIRE = "cbb5be42d8c13e7bea8d545dd2855126158a9f1c548b449f6362fb6d509e7a9c"


class WireHash:
    """A watcher on every link of a topology: one sha256 over the
    frames offered to them, in offer order."""

    def __init__(self, topo) -> None:
        self.sim = topo.sim
        self.digest = hashlib.sha256()
        self.frames = 0
        for index, link in enumerate(topo.links):
            link.watchers.append(_Watch(self, index))


class _Watch:
    def __init__(self, wire: WireHash, index: int) -> None:
        self.wire = wire
        self.index = index

    def offered(self, frame: bytes) -> None:
        wire = self.wire
        wire.frames += 1
        wire.digest.update(
            f"{wire.sim.now!r}|{self.index}|{len(frame)}|".encode() + bytes(frame)
        )

    def planned(self, frame: bytes, plan) -> None:
        pass


def test_fat_tree_wire_is_pinned():
    wires = []
    _fat_tree_arm(on_build=lambda topo: wires.append(WireHash(topo)))
    (wire,) = wires
    assert wire.frames > 0
    assert wire.digest.hexdigest() == FAT_TREE_WIRE


def _chain_run():
    sim = Simulator()
    topo = chain(sim, n_routers=2)
    wire = WireHash(topo)
    host_a, host_b = topo.hosts
    near, far = topo.routers

    def at(instant):
        return sim.timeout(instant - sim.now)

    def driver():
        # A cold burst: host A resolves its gateway, then every hop
        # misses in turn while the datagrams behind the first queue.
        mac = yield from host_a.resolve_link(host_b.ip)
        for ident in range(6):
            datagram = encode_datagram(4000 + ident, 9, bytes(32), host_a.ip, host_b.ip)
            yield from host_a.ip_send(host_b.ip, PROTO_UDP, datagram, link_dst=mac)
        yield at(0.1)
        yield from host_a.ip_send(
            near.interfaces[0].ip, PROTO_ICMP, encode_echo(True, 1, 1, b"near")
        )
        yield from host_a.ip_send(
            far.interfaces[1].ip, PROTO_ICMP, encode_echo(True, 1, 2, b"far")
        )
        yield at(0.2)
        yield from host_a.ip_send(
            host_b.ip, PROTO_ICMP, encode_echo(True, 1, 3, b"end to end")
        )
        yield at(0.3)
        for ttl in (1, 2):
            yield from host_a.ip_send(
                host_b.ip, PROTO_ICMP, encode_echo(True, 2, ttl), ttl=ttl
            )
        yield at(0.4)
        yield from host_a.ip_send(
            str_to_ip("172.16.9.9"), PROTO_ICMP, encode_echo(True, 3, 1)
        )

    sim.process(driver())
    sim.run(until=1.0)
    return topo, wire


def test_chain_wire_is_pinned():
    topo, wire = _chain_run()
    host_a, host_b = topo.hosts
    near, far = topo.routers
    # Every path the run means to take was taken.
    assert host_b.udp_ports.stats["no_port"] == 6
    assert near.stats["delivered_local"] == 1 and far.stats["delivered_local"] == 1
    assert near.stats["ttl_expired"] == 1 and far.stats["ttl_expired"] == 1
    assert near.stats["no_route"] == 1
    assert near.stats["forwarded"] >= 6 and far.stats["forwarded"] >= 6
    assert near.stats["input_dropped"] == 0 and near.stats["arp_failed"] == 0
    assert wire.digest.hexdigest() == CHAIN_WIRE
