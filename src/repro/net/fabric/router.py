"""An IP router: the gateway function the paper's library omits.

The paper's user-level IP "does not implement the functions required
for handling gateway traffic"; multi-hop topologies need exactly that.
A :class:`Router` is a multi-homed workstation — its own
:class:`~repro.mach.kernel.Kernel`, one :class:`PmaddNic` +
:class:`NetworkIoModule` + :class:`ArpStack` per attached segment —
whose kernel forwards between interfaces: longest-prefix route lookup,
TTL decrement (ICMP time-exceeded on expiry), ICMP network-unreachable
when no route matches.

Forwarding is decoupled from the receive interrupt through a bounded
input queue drained by a worker process.  The NIC's receive interrupt
must never block (an ARP resolution there would deadlock the very
interrupt path that delivers the ARP reply), so rx context only
classifies the packet, charges ``ip_input``, and enqueues; the worker
pays ``ip_forward``, resolves the next hop, and transmits.  A full
input queue tail-drops — a router under overload sheds load exactly
like a switch port does.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Generator, Optional

from ...counters import Counters

from ...costs import CostModel, DECSTATION_5000_200
from ...mach import Kernel
from ...obs import profile as _profile
from ...obs import spans as _spans
from ...netio.module import Done, LinkInfo, NetworkIoModule, work_then
from ...protocols.arp import ArpStack, SendArp
from ...protocols.icmp import (
    UNREACH_NET,
    decode_echo,
    encode_time_exceeded,
    encode_unreachable,
    is_icmp_error,
    make_reply,
)
from ...protocols.ip import IpError, forwarded_copy
from ...sim import Event, Simulator
from ..buf import prepend
from ..headers import (
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ArpPacket,
    HeaderError,
    Ipv4Header,
    PROTO_ICMP,
    ip_to_str,
)
from ..link import Link
from ..nic.pmadd import PmaddNic
from .routing import RouteTable, prefix_mask


class RouterInterface:
    """One of a router's network attachments: NIC + I/O module + ARP."""

    def __init__(
        self,
        router: "Router",
        link: Link,
        ip: int,
        mac: bytes,
        prefix_len: int,
        index: int,
    ) -> None:
        self.router = router
        self.link = link
        self.ip = ip
        self.mac = mac
        self.prefix_len = prefix_len
        self.index = index
        self.name = f"{router.name}-eth{index}"
        self.nic = PmaddNic(router.kernel, link, mac, name=self.name)
        self.netio = NetworkIoModule(router.kernel, self.nic)
        self.netio.kernel_rx = partial(router._rx, self)
        self.arp = ArpStack(ip, mac)

    def __repr__(self) -> str:
        return f"<RouterInterface {self.name} {ip_to_str(self.ip)}/{self.prefix_len}>"


class Router:
    """A multi-homed host that forwards IP between its interfaces."""

    #: Bound on packets awaiting the forwarding worker; arrivals beyond
    #: it are tail-dropped in rx context (counted as ``input_dropped``).
    INPUT_QUEUE_PACKETS = 64

    def __init__(
        self,
        sim: Simulator,
        name: str = "rtr",
        costs: CostModel = DECSTATION_5000_200,
        input_queue_packets: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.kernel = Kernel(sim, costs, name=name)
        self.interfaces: list[RouterInterface] = []
        #: The interfaces' addresses; ``_ip_input`` tests every packet's
        #: destination against it.
        self.local_ips: set[int] = set()
        self.routes = RouteTable()
        # Per-tier capacity: fat-tree builders give aggregation/core
        # routers deeper input queues than the class default.
        self._input_limit = input_queue_packets or self.INPUT_QUEUE_PACKETS
        self._input: Deque[tuple] = deque()
        #: The event the idle worker waits on; the next arrival is
        #: handed over through it without occupying a queue slot.
        self._parked: Optional[Event] = None
        self.stats = Counters()
        sim.process(self._worker(), name=f"{name}-fwd")

    def __repr__(self) -> str:
        return f"<Router {self.name} ifaces={len(self.interfaces)}>"

    def add_interface(
        self, link: Link, ip: int, mac: bytes, prefix_len: int = 24
    ) -> RouterInterface:
        """Attach the router to ``link`` and install the connected route."""
        iface = RouterInterface(
            self, link, ip, mac, prefix_len, len(self.interfaces)
        )
        self.interfaces.append(iface)
        self.local_ips.add(ip)
        self.routes.add(ip & prefix_mask(prefix_len), prefix_len, None, iface)
        return iface

    def add_route(
        self,
        prefix: int,
        prefix_len: int,
        gateway: Optional[int] = None,
        interface: Optional[RouterInterface] = None,
    ) -> None:
        """Install a static route.  With a gateway and no interface, the
        egress interface is inferred from the connected route covering
        the gateway."""
        if interface is None and gateway is not None:
            via = self.routes.lookup(gateway)
            if via is None or via.interface is None:
                raise ValueError(
                    f"{self.name}: gateway {ip_to_str(gateway)} is not on "
                    "any connected network"
                )
            interface = via.interface
        if interface is None:
            raise ValueError("route needs a gateway or an interface")
        self.routes.add(prefix, prefix_len, gateway, interface)

    @property
    def route_cache_stats(self) -> dict[str, int]:
        """Destination-cache counters (netstat's fast-path table)."""
        routes = self.routes
        return {
            "hits": routes.cache_hits,
            "misses": routes.cache_misses,
            "invalidations": routes.cache_invalidations,
        }

    # ------------------------------------------------------------------
    # Receive (interrupt context — callbacks, which cannot block)
    # ------------------------------------------------------------------

    def _rx(
        self,
        iface: RouterInterface,
        ethertype: int,
        payload: bytes,
        link_info: LinkInfo,
        done: Done,
    ) -> None:
        if ethertype == ETHERTYPE_ARP:
            self.sim.process(work_then(self._arp_rx(iface, payload), done))
            return
        if ethertype != ETHERTYPE_IP:
            done()
            return
        try:
            header = Ipv4Header.unpack(payload)
        except HeaderError:
            done()
            return
        if not Ipv4Header.LENGTH <= header.total_length <= len(payload):
            self.stats["bad_length"] += 1
            done()
            return
        stage = partial(self._ip_input, iface, header, payload, link_info, done)
        cost = self.kernel.costs.ip_input
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _ip_input(
        self,
        iface: RouterInterface,
        header: Ipv4Header,
        payload: bytes,
        link_info: LinkInfo,
        done: Done,
        _event: object,
    ) -> None:
        if header.dst in self.local_ips:
            work = self._local_rx(iface, header, payload, link_info)
            self.sim.process(work_then(work, done))
            return
        job = (iface, header, payload)
        parked = self._parked
        if parked is not None:
            self._parked = None
            parked.succeed(job)
        elif len(self._input) < self._input_limit:
            self._input.append(job)
        else:
            self.stats["input_dropped"] += 1
        done()

    def _arp_rx(self, iface: RouterInterface, payload: bytes) -> Generator:
        try:
            packet = ArpPacket.unpack(payload)
        except HeaderError:
            return
        for action in iface.arp.receive(packet, self.sim.now):
            if isinstance(action, SendArp):
                yield from iface.netio.kernel_send(
                    action.packet.pack(), action.dst_mac, ETHERTYPE_ARP
                )

    def _local_rx(
        self,
        iface: RouterInterface,
        header: Ipv4Header,
        packet: bytes,
        link_info: LinkInfo,
    ) -> Generator:
        """Traffic addressed to the router itself: answer ICMP echo."""
        self.stats["delivered_local"] += 1
        if header.protocol != PROTO_ICMP:
            return
        if header.frag_offset != 0 or header.more_fragments:
            return  # Routers don't reassemble; ping payloads fit the MTU.
        echo = decode_echo(packet[Ipv4Header.LENGTH : header.total_length])
        if echo is None or not echo.is_request:
            return
        # Reply straight out the ingress interface: the querier (or the
        # previous-hop gateway) is by definition reachable there.
        yield from self._emit(
            iface, header.src, make_reply(echo), link_dst=link_info.src
        )

    # ------------------------------------------------------------------
    # Forwarding worker (process context — free to block on ARP)
    # ------------------------------------------------------------------

    def _worker(self) -> Generator:
        cpu = self.kernel.cpu
        while True:
            # Packets that arrived while the last one was being
            # forwarded are taken directly; only an empty queue parks
            # the worker on an event.
            if self._input:
                job = self._input.popleft()
            else:
                self._parked = Event(self.sim)
                job = yield self._parked
            iface, header, packet = job
            cost = self.kernel.costs.ip_forward
            prof = _profile.PROFILER
            if prof is not None:
                prof.charge("router.forward", cost)
            rec = _spans.RECORDER
            if rec is not None:
                rec.touch(
                    packet, "router.fwd", self.sim.now, self.name,
                    detail=f"ttl={header.ttl}", cost=cost,
                )
            if cost:
                yield cpu.charge(cost)
            # Forwarding logic lives inline (not in a helper generator):
            # every CPU charge and transmit below resumes through this
            # frame, and the extra delegation hop is measurable at
            # fabric scale.
            route = self.routes.lookup(header.dst)
            if route is None:
                self.stats["no_route"] += 1
                yield from self._icmp_error(
                    iface, header, packet,
                    encode_unreachable(UNREACH_NET, packet),
                )
                continue
            if header.ttl <= 1:
                self.stats["ttl_expired"] += 1
                yield from self._icmp_error(
                    iface, header, packet, encode_time_exceeded(packet)
                )
                continue
            try:
                rewritten = forwarded_copy(header, packet)
            except IpError:
                continue
            out_iface = route.interface
            next_hop = route.gateway if route.gateway is not None else header.dst
            link_dst = yield from self._resolve(out_iface, next_hop)
            if link_dst is None:
                self.stats["arp_failed"] += 1
                continue
            self.stats["forwarded"] += 1
            yield from out_iface.netio.kernel_send(rewritten, link_dst)

    def _icmp_error(
        self,
        in_iface: RouterInterface,
        header: Ipv4Header,
        packet: bytes,
        message: bytes,
    ) -> Generator:
        """Send an ICMP error about ``packet`` back toward its source —
        unless the packet is itself an ICMP error (RFC 1122 forbids
        answering errors with errors, which would loop)."""
        if header.protocol == PROTO_ICMP and is_icmp_error(
            packet[Ipv4Header.LENGTH :]
        ):
            return
        yield from self._emit(in_iface, header.src, message)

    def _emit(
        self,
        iface: RouterInterface,
        dst_ip: int,
        icmp_payload: bytes,
        link_dst: object = None,
    ) -> Generator:
        """Originate an ICMP message from ``iface`` toward ``dst_ip``.

        Routed toward the source like any other packet: if a route says
        the destination is beyond another gateway, follow it; otherwise
        resolve on ``iface``'s own segment.
        """
        out_iface, next_hop = iface, dst_ip
        route = self.routes.lookup(dst_ip)
        if route is not None and route.interface is not None:
            out_iface = route.interface
            if route.gateway is not None:
                next_hop = route.gateway
        if link_dst is None:
            link_dst = yield from self._resolve(out_iface, next_hop)
            if link_dst is None:
                self.stats["arp_failed"] += 1
                return
        yield from self.kernel.cpu.consume(self.kernel.costs.ip_output)
        ip_packet = prepend(
            Ipv4Header(
                src=out_iface.ip,
                dst=dst_ip,
                protocol=PROTO_ICMP,
                total_length=Ipv4Header.LENGTH + len(icmp_payload),
            ).pack(),
            icmp_payload,
        )
        yield from out_iface.netio.kernel_send(ip_packet, link_dst)

    def _resolve(
        self, iface: RouterInterface, next_hop: int
    ) -> Generator:
        """ARP ``next_hop`` on ``iface``'s segment; None after timeout.

        Runs only in worker context — blocking here stalls the
        forwarding queue, not the receive interrupt.
        """
        for _ in range(100):
            mac = iface.arp.lookup(next_hop, self.sim.now)
            if mac is not None:
                return mac
            for action in iface.arp.resolve(next_hop, None, self.sim.now):
                if isinstance(action, SendArp):
                    yield from iface.netio.kernel_send(
                        action.packet.pack(), action.dst_mac, ETHERTYPE_ARP
                    )
            yield self.sim.timeout(0.5e-3)
        return None
