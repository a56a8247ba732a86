"""Topology builders: wiring hosts, switches, and routers into fabrics.

The paper measured two hosts on "a switchless, private segment".  These
builders grow that testbed into the shapes congestion and forwarding
experiments need:

* :func:`chain` — two hosts joined through N routers, one /24 per
  segment.  Exercises gateway forwarding, TTL, and ICMP errors.
* :func:`dumbbell` — N client/server pairs on fast edges joined by one
  slow trunk.  The classic congestion topology: every data flow shares
  the left switch's trunk port, whose finite queue is where loss lives.

Builders return a :class:`Topology` — a bag of named parts the caller
(tests, benches, :class:`~repro.testbed.FabricTestbed`) composes with
organizations and workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...costs import CostModel, DECSTATION_5000_200
from ...host import Host
from ...sim import Simulator
from ..headers import str_to_ip
from ..link import DuplexLink, Link
from .queues import RedQueue, TailDropQueue
from .router import Router
from .routing import RouteTable, prefix_mask
from .switch import Switch, SwitchPort


#: 10.0.0.0 — the builders' host address space, composed by octet shifts.
_TEN_SLASH_8 = 10 << 24


def fabric_mac(n: int) -> bytes:
    """Locally-administered MAC #``n`` (02:00:xx:xx:xx:xx).

    Four index bytes: a 1k-host fat tree burns thousands of addresses
    (hosts plus router interfaces), far past the old single-byte/16-bit
    ceiling."""
    if not 0 <= n <= 0xFFFFFFFF:
        raise ValueError(f"MAC index {n} out of range")
    return bytes([0x02, 0]) + n.to_bytes(4, "big")


@dataclass
class Topology:
    """The parts a builder wired together."""

    sim: Simulator
    name: str
    hosts: list[Host] = field(default_factory=list)
    routers: list[Router] = field(default_factory=list)
    switches: list[Switch] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    #: Dumbbell only: the left switch's trunk port — the one place
    #: forward-path congestion drops are expected.
    bottleneck: Optional[SwitchPort] = None
    #: Dumbbell only: sender-side hosts, index-paired with ``servers``.
    clients: list[Host] = field(default_factory=list)
    servers: list[Host] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: MACs handed out so far — the collision guard for small builders
    #: that pick indices by hand.
    used_macs: set = field(default_factory=set, repr=False)
    #: Next index for :meth:`next_mac`'s guard-free allocation.
    mac_counter: int = 1

    def alloc_mac(self, n: int) -> bytes:
        """``fabric_mac(n)`` with a uniqueness guard within this topology."""
        mac = fabric_mac(n)
        if mac in self.used_macs:
            raise ValueError(f"duplicate fabric MAC index {n}")
        self.used_macs.add(mac)
        return mac

    def next_mac(self) -> bytes:
        """Sequential MAC allocation: unique by construction.

        Big fabrics burn thousands of addresses; a monotone counter
        cannot collide, so this skips both the range check and the
        per-allocation set guard that :meth:`alloc_mac` pays.  A
        builder must not mix the two schemes within one topology.
        """
        n = self.mac_counter
        self.mac_counter = n + 1
        return b"\x02\x00" + n.to_bytes(4, "big")

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name}: {len(self.hosts)} hosts, "
            f"{len(self.routers)} routers, {len(self.switches)} switches>"
        )


def _edge_host(
    sim: Simulator,
    switch: Switch,
    name: str,
    ip: int,
    mac: bytes,
    rate: float,
    costs: CostModel,
    topo: Topology,
) -> Host:
    """One host on its own duplex cable into ``switch``."""
    cable = DuplexLink(sim, bit_rate=rate)
    host = Host(
        sim,
        cable,
        name,
        ip,
        mac,
        costs=costs,
    )
    switch.add_port(cable)
    topo.links.append(cable)
    topo.hosts.append(host)
    return host


def chain(
    sim: Simulator,
    n_routers: int,
    edge_rate: float = 10e6,
    costs: CostModel = DECSTATION_5000_200,
) -> Topology:
    """host_a — r0 — r1 — … — host_b, one /24 per segment.

    Segment ``i`` is ``10.0.i.0/24``; its left node is ``.1``, its
    right node ``.2``.  Hosts get default routes to their adjacent
    router; routers get static routes to every non-adjacent segment.
    """
    if n_routers < 1:
        raise ValueError("a chain needs at least one router")
    topo = Topology(sim, f"chain{n_routers}")
    segments = [DuplexLink(sim, bit_rate=edge_rate) for _ in range(n_routers + 1)]
    topo.links.extend(segments)
    mac = iter(range(1, 2 * n_routers + 3)).__next__

    def seg_ip(segment: int, last_octet: int) -> int:
        return str_to_ip(f"10.0.{segment}.{last_octet}")

    host_a = Host(
        sim, segments[0], "ha", seg_ip(0, 1), topo.alloc_mac(mac()),
        costs=costs,
    )
    last = n_routers
    host_b = Host(
        sim, segments[last], "hb", seg_ip(last, 2), topo.alloc_mac(mac()),
        costs=costs,
    )
    topo.hosts.extend([host_a, host_b])

    for k in range(n_routers):
        router = Router(sim, f"r{k}", costs=costs)
        router.add_interface(segments[k], seg_ip(k, 2), topo.alloc_mac(mac()))
        router.add_interface(segments[k + 1], seg_ip(k + 1, 1), topo.alloc_mac(mac()))
        topo.routers.append(router)

    # Hosts default-route to their adjacent router.
    host_a.routes = RouteTable()
    host_a.routes.add(seg_ip(0, 0), 24)  # On-link.
    host_a.routes.add_default(seg_ip(0, 2))
    host_b.routes = RouteTable()
    host_b.routes.add(seg_ip(last, 0), 24)
    host_b.routes.add_default(seg_ip(last, 1))

    # Routers reach distant segments through their neighbours.
    for k, router in enumerate(topo.routers):
        for j in range(n_routers + 1):
            if j in (k, k + 1):
                continue  # Connected.
            gateway = seg_ip(k, 1) if j < k else seg_ip(k + 1, 2)
            router.add_route(seg_ip(j, 0) & prefix_mask(24), 24, gateway)
    return topo


def dumbbell(
    sim: Simulator,
    pairs: int,
    edge_rate: float = 100e6,
    bottleneck_rate: float = 10e6,
    queue_bytes: int = Switch.DEFAULT_QUEUE_BYTES,
    red: bool = False,
    red_seed: int = 0,
    costs: CostModel = DECSTATION_5000_200,
) -> Topology:
    """``pairs`` clients and servers joined by one slow trunk.

    Clients (10.0.0.x) hang off the left switch, servers (10.0.1.x)
    off the right, each on an ``edge_rate`` duplex cable; the switches
    are joined by one ``bottleneck_rate`` trunk.  All data flows share
    the left switch's trunk port — its ``queue_bytes`` egress queue
    (tail-drop, or RED when ``red``) is the congestion point.  One flat
    subnet: no routers, loss is pure L2 queue overflow.
    """
    if pairs < 1:
        raise ValueError("a dumbbell needs at least one pair")
    topo = Topology(sim, f"dumbbell{pairs}")
    sw_l = Switch(sim, "swL", default_queue_bytes=queue_bytes)
    sw_r = Switch(sim, "swR", default_queue_bytes=queue_bytes)
    topo.switches.extend([sw_l, sw_r])

    trunk = DuplexLink(sim, bit_rate=bottleneck_rate)
    topo.links.append(trunk)

    def trunk_queue(queue_sim: Simulator, capacity: int):
        if red:
            return RedQueue(queue_sim, capacity, seed=red_seed)
        return TailDropQueue(queue_sim, capacity)

    bottleneck = sw_l.add_port(trunk, queue=trunk_queue(sim, queue_bytes))
    sw_r.add_port(trunk, queue=trunk_queue(sim, queue_bytes))
    topo.bottleneck = bottleneck

    client_base = str_to_ip("10.0.0.0")
    server_base = str_to_ip("10.0.1.0")
    for i in range(pairs):
        client = _edge_host(
            sim, sw_l, f"c{i}", client_base + i + 1,
            topo.alloc_mac(0x100 + i), edge_rate, costs, topo,
        )
        server = _edge_host(
            sim, sw_r, f"s{i}", server_base + i + 1,
            topo.alloc_mac(0x200 + i), edge_rate, costs, topo,
        )
        topo.clients.append(client)
        topo.servers.append(server)
    topo.meta.update(
        trunk=trunk,
        edge_rate=edge_rate,
        bottleneck_rate=bottleneck_rate,
        queue_bytes=queue_bytes,
        red=red,
    )
    return topo


def fat_tree(
    sim: Simulator,
    k: int = 4,
    hosts_per_edge: Optional[int] = None,
    edge_rate: float = 100e6,
    agg_rate: float = 100e6,
    core_rate: float = 100e6,
    edge_queue_bytes: int = Switch.DEFAULT_QUEUE_BYTES,
    agg_queue_packets: int = 128,
    core_queue_packets: int = 256,
    costs: CostModel = DECSTATION_5000_200,
) -> Topology:
    """A k-ary fat-tree/Clos: L2 edge switches, L3 aggregation and core.

    ``k`` pods, each with ``k/2`` edge switches (learning bridges) and
    ``k/2`` aggregation routers; ``(k/2)**2`` core routers join the
    pods.  Edge subnet ``(p, e)`` is ``10.p.e.0/24``: hosts at ``.1..``,
    every aggregation router ``q`` of the pod at ``.200+q`` on that
    same L2 segment.  Aggregation↔core links are point-to-point /30s
    carved from ``172.16.0.0``; core router ``(q, j)`` connects to
    aggregation router ``q`` of *every* pod, so a packet's up-path
    pins its down-path aggregation router.

    Deterministic multi-path spreading, no ECMP randomness:

    * host ``h`` default-routes via aggregation router ``h % (k/2)``;
    * aggregation router ``q`` in pod ``p`` reaches pod ``p'`` through
      core ``(q, (p' + q) % (k/2))`` (a ``10.p'.0.0/16`` route);
    * core ``(q, j)`` reaches pod ``p`` through its link to that pod's
      aggregation router ``q``.

    Per-tier queueing: edge switch ports hold ``edge_queue_bytes``;
    aggregation/core routers take ``agg_queue_packets`` /
    ``core_queue_packets`` forwarding-input slots.

    Host count is ``k * (k/2) * hosts_per_edge`` (``hosts_per_edge``
    defaults to the classic ``k/2``): k=4 → 16, k=8 (8 hosts/edge) →
    256, k=16 (8 hosts/edge) → 1024.
    """
    if k < 2 or k % 2:
        raise ValueError("fat tree needs an even k >= 2")
    half = k // 2
    hpe = half if hosts_per_edge is None else hosts_per_edge
    if not 1 <= hpe <= 199:
        raise ValueError("hosts_per_edge must be in 1..199")
    topo = Topology(sim, f"fat-tree-k{k}")
    # Allocation is precomputed arithmetic: sequential MACs (unique by
    # construction, no guard set) and shifted-octet IPs (no per-host
    # string formatting + parse).  At 4096 hosts the formatting path
    # alone was a measurable slice of build wall time.
    mac = topo.next_mac

    def subnet_ip(pod: int, edge: int, last: int) -> int:
        return _TEN_SLASH_8 | (pod << 16) | (edge << 8) | last

    # Core routers first: core[q][j].
    p2p_base = str_to_ip("172.16.0.0")
    p2p_index = 0
    #: (pod, agg index, core column) -> core-side /30 address.
    core_ip: dict[tuple[int, int, int], int] = {}
    cores = [
        [
            Router(
                sim, f"core-{q}-{j}", costs=costs,
                input_queue_packets=core_queue_packets,
            )
            for j in range(half)
        ]
        for q in range(half)
    ]
    for row in cores:
        topo.routers.extend(row)

    edge_switches: list[Switch] = []
    agg_routers: list[list[Router]] = []  # agg_routers[p][q]

    for p in range(k):
        pod_aggs = [
            Router(
                sim, f"agg-p{p}a{q}", costs=costs,
                input_queue_packets=agg_queue_packets,
            )
            for q in range(half)
        ]
        agg_routers.append(pod_aggs)
        topo.routers.extend(pod_aggs)

        for e in range(half):
            switch = Switch(
                sim, f"sw-p{p}e{e}", default_queue_bytes=edge_queue_bytes
            )
            edge_switches.append(switch)
            topo.switches.append(switch)

            # Aggregation routers join this edge segment at .200+q.
            subnet = subnet_ip(p, e, 0)
            for q, agg in enumerate(pod_aggs):
                cable = DuplexLink(sim, bit_rate=agg_rate)
                agg.add_interface(cable, subnet + 200 + q, mac())
                switch.add_port(cable)
                topo.links.append(cable)

            # Hosts: 10.p.e.1 .. 10.p.e.hpe, gateway spread by h % half.
            for h in range(hpe):
                host = _edge_host(
                    sim, switch, f"h-p{p}e{e}n{h}",
                    subnet + h + 1, mac(),
                    edge_rate, costs, topo,
                )
                host.routes = RouteTable()
                host.routes.add(subnet, 24)  # On-link.
                host.routes.add_default(subnet + 200 + h % half)

        # Aggregation q uplinks to cores (q, 0..half-1), one /30 each.
        for q, agg in enumerate(pod_aggs):
            for j in range(half):
                core = cores[q][j]
                base = p2p_base + 4 * p2p_index
                p2p_index += 1
                link = DuplexLink(sim, bit_rate=core_rate)
                agg.add_interface(link, base + 1, mac(), prefix_len=30)
                core.add_interface(link, base + 2, mac(), prefix_len=30)
                topo.links.append(link)
                # Core reaches this whole pod through this agg router.
                core.add_route(subnet_ip(p, 0, 0), 16, gateway=base + 1)
                core_ip[(p, q, j)] = base + 2

    # Aggregation inter-pod routes: pod p' via core (q, (p' + q) % half).
    for p in range(k):
        for q, agg in enumerate(agg_routers[p]):
            for p2 in range(k):
                if p2 == p:
                    continue
                j = (p2 + q) % half
                agg.add_route(
                    subnet_ip(p2, 0, 0), 16, gateway=core_ip[(p, q, j)]
                )

    topo.meta.update(
        k=k,
        hosts_per_edge=hpe,
        pods=k,
        edge_switches=edge_switches,
        agg_routers=agg_routers,
        core_routers=cores,
        edge_rate=edge_rate,
        agg_rate=agg_rate,
        core_rate=core_rate,
    )
    return topo
