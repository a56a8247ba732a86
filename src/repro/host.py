"""A simulated workstation: kernel + NIC + network I/O module + the
kernel-resident network plumbing every organization shares (ARP, IP
dispatch, ICMP echo, UDP port table).

The TCP organization (in-kernel, single-server, dedicated-server, or
user-level library) is attached on top by :mod:`repro.org` /
:mod:`repro.testbed`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Optional, Union

from .costs import CostModel, DECSTATION_5000_200
from .mach import Kernel, Task
from .net.headers import (
    ARP_REPLY,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    ArpPacket,
    HeaderError,
    Ipv4Header,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    UdpHeader,
    ip_to_str,
)
from .net.buf import prepend
from .net.link import An1Link, EthernetLink, Link
from .net.nic.an1ctrl import An1Nic
from .net.nic.pmadd import PmaddNic
from .netio.channels import Channel
from .netio.module import Done, LinkInfo, NetworkIoModule, work_then
from .obs import profile as _profile
from .protocols.arp import ArpStack, Resolved, SendArp
from .protocols.icmp import (
    UNREACH_PORT,
    decode_echo,
    encode_unreachable,
    make_reply,
)
from .protocols.ip import IpStack
from .protocols.udp import UdpPortTable
from .sim import Simulator

#: Kernel-side TCP consumer installed by the organization:
#: ``handler(tcp_payload, src_ip, link_info)`` as a generator, run as
#: a kernel thread (it transmits).
TcpKernelHandler = Callable[[bytes, int, LinkInfo], Generator]


class Host:
    """One workstation on one network."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        name: str,
        ip: int,
        link_addr: Union[bytes, int],
        costs: CostModel = DECSTATION_5000_200,
        demux_style: str = "synthesized",
        an1_driver_mtu: int = 1500,
        batching: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip
        self.link_addr = link_addr
        self.kernel = Kernel(sim, costs, name=name)
        if isinstance(link, An1Link):
            self.nic = An1Nic(
                self.kernel,
                link,
                station=link_addr,
                name=f"{name}-an1",
                driver_mtu_data=an1_driver_mtu,
            )
        elif isinstance(link, EthernetLink):
            self.nic = PmaddNic(self.kernel, link, link_addr, name=f"{name}-eth")
        else:
            raise TypeError(f"unsupported link {link!r}")
        self.netio = NetworkIoModule(
            self.kernel, self.nic, demux_style, batching=batching
        )
        self.netio.kernel_rx = self._kernel_rx

        # Kernel-resident network layers shared by all organizations.
        self.ip_stack = IpStack(ip)
        self.udp_ports = UdpPortTable()
        if self.is_an1:
            self.arp: Optional[ArpStack] = None
            #: AN1 has no broadcast ARP here; the testbed installs a
            #: static IP→station table (Autonet address resolution).
            self.an1_neighbors: dict[int, int] = {}
        else:
            self.arp = ArpStack(ip, link_addr)
        self.tcp_kernel_handler: Optional[TcpKernelHandler] = None
        #: Optional :class:`~repro.net.fabric.routing.RouteTable`.  When
        #: set (fabric topologies), ``resolve_link`` ARPs the route's
        #: next hop — a gateway for off-subnet destinations — instead of
        #: the destination itself.  None preserves the paper's original
        #: single-segment behaviour.
        self.routes = None
        #: Slow-timer housekeeping (IP reassembly expiry) is armed lazily
        #: on the first fragment: an idle host costs the engine nothing,
        #: and a quiet 1k-host world doesn't tick 1k perpetual timers.
        self._slow_timer_armed = False
        self.icmp_echo_enabled = True

    def __repr__(self) -> str:
        return f"<Host {self.name} {ip_to_str(self.ip)}>"

    @property
    def is_an1(self) -> bool:
        return isinstance(self.nic, An1Nic)

    @property
    def mtu(self) -> int:
        return self.nic.mtu_data

    def create_task(self, name: str, privileged: bool = False) -> Task:
        return self.kernel.create_task(name, privileged=privileged)

    # ------------------------------------------------------------------
    # Link address resolution
    # ------------------------------------------------------------------

    def resolve_link(self, dst_ip: int) -> Generator:
        """Resolve ``dst_ip`` to a link address (blocking, real ARP on
        Ethernet; static table on AN1)."""
        if self.is_an1:
            try:
                return self.an1_neighbors[dst_ip]
            except KeyError:
                raise LookupError(
                    f"{self.name}: no AN1 station for {ip_to_str(dst_ip)}"
                ) from None
        # Off-subnet destinations resolve their gateway's address: the
        # frame goes to the router, the IP header stays end-to-end.
        hop_ip = self.routes.next_hop(dst_ip) if self.routes is not None else dst_ip
        for attempt in range(4000):
            mac = self.arp.lookup(hop_ip, self.sim.now)
            if mac is not None:
                return mac
            actions = self.arp.resolve(hop_ip, None, self.sim.now)
            for action in actions:
                if isinstance(action, SendArp):
                    yield from self.netio.kernel_send(
                        action.packet.pack(), action.dst_mac, ETHERTYPE_ARP
                    )
            # Poll at sub-millisecond granularity; replies land within a
            # couple of wire times on an idle segment.
            yield self.sim.timeout(0.5e-3)
        raise LookupError(f"{self.name}: ARP failed for {ip_to_str(dst_ip)}")

    # ------------------------------------------------------------------
    # Kernel receive dispatch
    # ------------------------------------------------------------------

    def _kernel_rx(
        self, ethertype: int, payload: bytes, link_info: LinkInfo, done: Done
    ) -> None:
        """Interrupt context up to a port handler or a channel's ring;
        whatever answers on the wire runs as a kernel thread."""
        if ethertype == ETHERTYPE_ARP and self.arp is not None:
            self.sim.process(work_then(self._arp_rx(payload), done))
            return
        if ethertype != ETHERTYPE_IP:
            done()
            return
        datagram = self.ip_stack.receive(payload, now=self.sim.now)
        if datagram is None:
            if self.ip_stack.pending_reassemblies:
                self._arm_slow_timer()
            done()
            return
        cost = self.kernel.costs.ip_input
        prof = _profile.PROFILER
        if prof is not None:
            prof.charge("ip.input", cost)
        stage = partial(self._ip_input, datagram, payload, link_info, done)
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _ip_input(
        self, datagram, payload: bytes, link_info: LinkInfo, done: Done,
        _event: object,
    ) -> None:
        protocol = datagram.protocol
        if protocol == PROTO_UDP:
            stage = partial(self._udp_input, datagram, payload, link_info, done)
            cost = self.kernel.costs.udp_packet
            if cost:
                self.kernel.cpu.charge(cost, stage)
            else:
                stage(None)
        elif protocol == PROTO_TCP and self.tcp_kernel_handler is not None:
            work = self.tcp_kernel_handler(datagram.payload, datagram.src, link_info)
            self.sim.process(work_then(work, done))
        elif protocol == PROTO_ICMP and self.icmp_echo_enabled:
            work = self._icmp_rx(datagram.payload, datagram.src, link_info)
            self.sim.process(work_then(work, done))
        else:
            done()

    def _udp_input(
        self, datagram, payload: bytes, link_info: LinkInfo, done: Done,
        _event: object,
    ) -> None:
        channel = self._udp_channel(datagram.payload)
        if channel is not None:
            # Relay into the user-level channel bound to the port: the
            # software demux fallback the paper's §5 anticipates for
            # connectionless protocols before BQI discovery completes.
            stage = partial(self._relay_udp, channel, datagram, link_info, done)
            cost = self.kernel.costs.sw_demux
            if cost:
                self.kernel.cpu.charge(cost, stage)
            else:
                stage(None)
            return
        delivered = self.udp_ports.deliver(datagram.payload, datagram.src, self.ip)
        if delivered or not self.icmp_echo_enabled:
            done()
            return
        # RFC 1122: a datagram to a closed port draws an ICMP
        # port-unreachable quoting the offender.
        original = payload[: Ipv4Header.LENGTH + 8]
        work = self.ip_send(
            datagram.src,
            PROTO_ICMP,
            encode_unreachable(UNREACH_PORT, original),
            link_info.src,
        )
        self.sim.process(work_then(work, done))

    def _arm_slow_timer(self) -> None:
        if not self._slow_timer_armed:
            self._slow_timer_armed = True
            self.sim.process(self._slow_timer(), name=f"{self.name}-slowtimer")

    def _slow_timer(self) -> Generator:
        """Periodic housekeeping, like BSD's 500 ms slow timeout.

        Runs only while reassembly state exists; it disarms itself when
        the last partial datagram completes or expires and is re-armed by
        the next lone fragment."""
        while self.ip_stack.pending_reassemblies:
            yield self.sim.timeout(0.5)
            expired = self.ip_stack.expire(self.sim.now)
            if expired:
                yield from self.kernel.cpu.consume(
                    self.kernel.costs.timer_op * expired
                )
        self._slow_timer_armed = False

    def _udp_channel(self, udp_payload: bytes) -> Optional[Channel]:
        """The user-level channel bound to a datagram's port, if any —
        resolved through the flow table's wildcard tier, the same entry
        the Ethernet receive path demuxes on."""
        try:
            header = UdpHeader.unpack(udp_payload)
        except HeaderError:
            return None
        channel = self.netio.flow_table.wildcard_target(
            PROTO_UDP, header.dport, local_ip=self.ip
        )
        return channel if isinstance(channel, Channel) else None

    def _relay_udp(
        self, channel: Channel, datagram, link_info: LinkInfo, done: Done,
        _event: object,
    ) -> None:
        packet = prepend(
            Ipv4Header(
                src=datagram.src,
                dst=self.ip,
                protocol=PROTO_UDP,
                total_length=Ipv4Header.LENGTH + len(datagram.payload),
            ).pack(),
            datagram.payload,
        )
        self.netio._deliver(channel, packet, link_info, done)

    def _arp_rx(self, payload: bytes) -> Generator:
        try:
            packet = ArpPacket.unpack(payload)
        except HeaderError:
            return
        for action in self.arp.receive(packet, self.sim.now):
            if isinstance(action, SendArp):
                yield from self.netio.kernel_send(
                    action.packet.pack(), action.dst_mac, ETHERTYPE_ARP
                )

    def _icmp_rx(self, payload: bytes, src_ip: int, link_info: LinkInfo) -> Generator:
        echo = decode_echo(payload)
        if echo is None or not echo.is_request:
            return
        reply = make_reply(echo)
        yield from self.ip_send(src_ip, PROTO_ICMP, reply, link_info.src)

    # ------------------------------------------------------------------
    # Kernel IP transmission (used by organizations and the registry)
    # ------------------------------------------------------------------

    def ip_send(
        self,
        dst_ip: int,
        protocol: int,
        payload: bytes,
        link_dst: object = None,
        bqi: int = 0,
        adv_bqi: int = 0,
        ttl: int = 64,
    ) -> Generator:
        """Encapsulate and transmit one transport payload from kernel
        context, fragmenting to the device MTU if needed."""
        costs = self.kernel.costs
        if link_dst is None:
            link_dst = yield from self.resolve_link(dst_ip)
        if costs.ip_output:
            yield self.kernel.cpu.charge(costs.ip_output)
        packets = self.ip_stack.send(dst_ip, protocol, payload, mtu=self.mtu, ttl=ttl)
        for packet in packets:
            yield from self.netio.kernel_send(
                packet, link_dst, bqi=bqi, adv_bqi=adv_bqi
            )
