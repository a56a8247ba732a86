"""An IP router: the gateway function the paper's library omits.

The paper's user-level IP "does not implement the functions required
for handling gateway traffic"; multi-hop topologies need exactly that.
A :class:`Router` is a multi-homed workstation — its own
:class:`~repro.mach.kernel.Kernel`, one :class:`PmaddNic` +
:class:`NetworkIoModule` + :class:`ArpStack` per attached segment —
whose kernel forwards between interfaces: longest-prefix route lookup,
TTL decrement (ICMP time-exceeded on expiry), ICMP network-unreachable
when no route matches.

Forwarding runs in interrupt context, as BSD's ``ipintr`` does, as a
chain of CPU-charge callbacks: ``ip_input``, then ``ip_forward``, the
route and the ARP-cache hit, and the NIC's callback transmit, whose
completion takes the next job from a bounded input queue (full, it
tail-drops, as a switch port does).  An idle router starts a job in a
same-instant event.  ARP and ICMP replies are chains too; only an ARP
miss runs a process, ``_resolve``, holding the jobs behind it while the
receive interrupt that brings the ARP reply runs on.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Generator, Optional

from ...counters import Counters

from ... import obs as _obs
from ...costs import CostModel, DECSTATION_5000_200
from ...mach import Kernel
from ...netio.module import Done, LinkInfo, NetworkIoModule
from ...protocols.arp import ArpStack
from ...protocols.icmp import (
    UNREACH_NET,
    decode_echo,
    encode_time_exceeded,
    encode_unreachable,
    is_icmp_error,
    make_reply,
)
from ...protocols.ip import encapsulate, forwarded_header
from ...sim import Simulator
from ..buf import slice_view
from ..headers import (
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
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

    #: Bound on packets awaiting the job in flight; arrivals beyond it
    #: are tail-dropped in rx context (counted as ``input_dropped``).
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
        #: True from a job's start until its transmit completes with
        #: the queue empty; an idle router's next arrival takes no slot.
        self.forwarding = False
        self.stats = Counters()

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
            self._arp_rx(iface, payload, done)
            return
        if ethertype != ETHERTYPE_IP:
            self.stats["unknown_ethertype"] += 1
            done()
            return
        try:
            header = Ipv4Header.unpack(payload)
        except HeaderError:
            # Bad checksum or total length, not version 4, options, or short.
            self.stats["bad_header"] += 1
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
            self._local_rx(iface, header, payload, link_info, done)
            return
        if not self.forwarding:
            # The job starts in its own event at this instant, behind
            # every event already due now and whatever ``done`` charges
            # for the next received frame: started in place, it would
            # claim the CPU ahead of them.
            self.forwarding = True
            self.sim.call_later(0, partial(self._take, (iface, header, payload)))
        elif len(self._input) < self._input_limit:
            self._input.append((iface, header, payload))
        else:
            self.stats["input_dropped"] += 1
        done()

    def _arp_rx(self, iface: RouterInterface, payload: bytes, done: Done) -> None:
        for reply in iface.arp.receive(payload, self.sim.now):  # At most one.
            iface.netio.kernel_send(
                reply.packet.pack(), reply.dst_mac, ETHERTYPE_ARP, then=done
            )
            return
        done()

    def _local_rx(
        self,
        iface: RouterInterface,
        header: Ipv4Header,
        packet: bytes,
        link_info: LinkInfo,
        done: Done,
    ) -> None:
        """Traffic addressed to the router itself: answer ICMP echo;
        anything else is counted as ``no_protocol`` and dropped."""
        self.stats["delivered_local"] += 1
        # Routers don't reassemble; ping payloads fit the MTU.
        echo = None
        if header.protocol == PROTO_ICMP and not (
            header.frag_offset or header.more_fragments
        ):
            echo = decode_echo(packet[Ipv4Header.LENGTH : header.total_length])
        if echo is None or not echo.is_request:
            self.stats["no_protocol"] += 1
            done()
            return
        # Reply straight out the ingress interface: the querier (or the
        # previous-hop gateway) is by definition reachable there.
        self._emit(iface, header.src, make_reply(echo), done, link_dst=link_info.src)

    # ------------------------------------------------------------------
    # Forwarding: one job at a time, each a chain of CPU charges
    # ------------------------------------------------------------------

    def _take(self, job: Optional[tuple] = None, _event: object = None) -> None:
        """Start a forwarding job by charging ``ip_forward``: ``job``, or
        when the last job's transmit completes (a call with no
        arguments) the oldest queued one; with none queued, go idle."""
        if job is None:
            if not self._input:
                self.forwarding = False
                return
            job = self._input.popleft()
        iface, header, packet = job
        cost = self.kernel.costs.ip_forward
        obs = _obs.SESSION
        if obs is not None:
            obs.book(
                "router.forward", packet, self.sim.now, self.name, cost,
                f"ttl={header.ttl}",
            )
        stage = partial(self._forward, iface, header, packet)
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _forward(
        self,
        iface: RouterInterface,
        header: Ipv4Header,
        packet: bytes,
        _event: object,
    ) -> None:
        route = self.routes.lookup(header.dst)
        if route is None:
            self.stats["no_route"] += 1
            self._icmp_error(
                iface, header, packet, encode_unreachable(UNREACH_NET, packet)
            )
            return
        if header.ttl <= 1:
            self.stats["ttl_expired"] += 1
            self._icmp_error(iface, header, packet, encode_time_exceeded(packet))
            return
        head = forwarded_header(header, packet)
        out_iface = route.interface
        next_hop = route.gateway if route.gateway is not None else header.dst
        # The ARP cache hit inline; only a miss enters the resolver.
        link_dst = out_iface.arp.lookup(next_hop, self.sim.now)
        if link_dst is None:
            self.sim.process(self._resolve(
                out_iface, next_hop, partial(self._send, out_iface, head, packet)
            ))
            return
        self.stats["forwarded"] += 1
        # One chain per hop: the next hop's link header and the patched
        # IP header in front of a view of the rest.
        out_iface.netio.kernel_send(
            slice_view(packet, Ipv4Header.LENGTH), link_dst, head=head,
            then=self._take,
        )

    def _send(
        self,
        out_iface: RouterInterface,
        head: bytes,
        packet: bytes,
        link_dst: object,
    ) -> None:
        """The end of a forward whose next hop missed in the ARP cache."""
        if link_dst is None:
            self.stats["arp_failed"] += 1
            self._take()
            return
        self.stats["forwarded"] += 1
        out_iface.netio.kernel_send(
            slice_view(packet, Ipv4Header.LENGTH), link_dst, head=head,
            then=self._take,
        )

    def _icmp_error(
        self,
        in_iface: RouterInterface,
        header: Ipv4Header,
        packet: bytes,
        message: bytes,
    ) -> None:
        """Send an ICMP error about ``packet`` back toward its source —
        unless the packet is itself an ICMP error (RFC 1122 forbids
        answering errors with errors, which would loop) — and end the
        job."""
        if header.protocol == PROTO_ICMP and is_icmp_error(
            packet[Ipv4Header.LENGTH :]
        ):
            self._take()
            return
        self._emit(in_iface, header.src, message, self._take)

    def _emit(
        self,
        iface: RouterInterface,
        dst_ip: int,
        icmp_payload: bytes,
        then: Done,
        link_dst: object = None,
    ) -> None:
        """Originate an ICMP message from ``iface`` toward ``dst_ip``,
        then ``then()``.

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
            link_dst = out_iface.arp.lookup(next_hop, self.sim.now)
            if link_dst is None:
                self.sim.process(self._resolve(
                    out_iface, next_hop,
                    partial(self._output, out_iface, dst_ip, icmp_payload, then),
                ))
                return
        self._output(out_iface, dst_ip, icmp_payload, then, link_dst)

    def _output(
        self,
        out_iface: RouterInterface,
        dst_ip: int,
        icmp_payload: bytes,
        then: Done,
        link_dst: object,
    ) -> None:
        if link_dst is None:
            self.stats["arp_failed"] += 1
            then()
            return
        stage = partial(self._encapsulate, out_iface, dst_ip, icmp_payload, link_dst, then)
        cost = self.kernel.costs.ip_output
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _encapsulate(
        self,
        out_iface: RouterInterface,
        dst_ip: int,
        icmp_payload: bytes,
        link_dst: object,
        then: Done,
        _event: object,
    ) -> None:
        ip_packet = encapsulate(out_iface.ip, dst_ip, PROTO_ICMP, icmp_payload)
        out_iface.netio.kernel_send(ip_packet, link_dst, then=then)

    def _resolve(
        self,
        iface: RouterInterface,
        next_hop: int,
        then: Callable[[object], None],
    ) -> Generator:
        """ARP ``next_hop`` on ``iface``'s segment, then ``then(mac)``,
        or ``then(None)`` after the timeout.

        The router's one process, started only on a cache miss: it
        polls until the reply lands, and the jobs queued behind the one
        it holds wait for it, not the receive interrupt.
        """
        for _ in range(100):
            mac = iface.arp.lookup(next_hop, self.sim.now)
            if mac is not None:
                then(mac)
                return
            request = iface.arp.resolve(next_hop, self.sim.now)
            if request is not None:
                yield from iface.netio.kernel_send(
                    request.packet.pack(), request.dst_mac, ETHERTYPE_ARP
                )
            yield self.sim.timeout(0.5e-3)
        then(None)
