"""A user-level UDP library — the connectionless case (paper §5).

The paper's conclusions discuss connectionless protocols explicitly:
they have no connection-setup phase in which to exchange BQIs, so on
AN1 "the hardware packet demultiplexing mechanism is difficult to
exploit ... In other cases" — unless the endpoints *discover* "the
index value of their peer by examining the link-level headers of
incoming messages" (§2.2).

This library implements exactly that:

* **Binding** goes through the registry (ports are names; untrusted
  libraries don't mint them): the registry installs a UDP channel —
  demux filter on Ethernet, BQI ring on AN1 — and a send template that
  pins the source address and port.
* **Datagrams to unknown peers** leave with BQI 0 and arrive through
  the *kernel* path at the receiver (BQI 0 is protected kernel memory);
  a kernel-side forwarder the registry installs relays them into the
  channel — the slow path.
* Every datagram **advertises the sender's own ring index** in the AN1
  link header's spare field; receivers cache the peer's BQI and stamp
  it on subsequent datagrams — after the first exchange, delivery is
  pure hardware demux, no kernel software on the path.

This is the Topaz-UDP / request-response-protocol story the paper tells,
with the strict protection its own design adds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator

from ..counters import Counters
from ..mach.ipc import Message
from ..net.buf import STATS, PacketBuffer, slice_view
from ..net.headers import HeaderError, Ipv4Header, PROTO_UDP
from ..netio.channels import Channel, ChannelClosed
from ..protocols.ip import encapsulate
from ..protocols.rrp import Complete, RrpClient, RrpServer, SendDatagram, SetRetry
from ..protocols.udp import UdpDatagram, decode_datagram, encode_datagram
from ..sim import Event, Interrupt
from ..tenancy.tenant import RateLimited
from .userlib import RegistryClient


class LibraryUdpService(RegistryClient):
    """The UDP library instance linked into one application."""

    def bind(self, port: int = 0) -> Generator:
        """Bind a UDP port through the registry; returns a
        :class:`UdpEndpoint` backed by a protected channel."""
        reply = yield from self._rpc(Message("bind_udp", body={"port": port}))
        if reply.op != "grant":
            raise OSError(str(reply.body))
        return UdpEndpoint(self, reply.body["port"], reply.body["channel"])


class UdpEndpoint:
    """One bound UDP port, with BQI discovery on AN1."""

    def __init__(self, service: LibraryUdpService, port: int, channel: Channel) -> None:
        self.service = service
        self.kernel = service.kernel
        self.sim = service.sim
        self.port = port
        self.channel = channel
        #: The wildcard flow the registry installed for this binding —
        #: the same entry the kernel's forwarder resolves datagrams by.
        self.flow_key = channel.flow_key
        self._datagrams: Deque[UdpDatagram] = deque()
        self._readers: list[Event] = []
        #: Discovered peer rings: ip -> BQI (learned from adv_bqi).
        self.peer_bqi: dict[int, int] = {}
        self._closed = False
        self._reader = service.app.spawn(
            self._receive_loop(), name=f"udp-rx-{port}"
        )
        self.stats = Counters()

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def sendto(self, dst_ip: int, dst_port: int, data: bytes) -> Generator:
        """Transmit one datagram through the protected channel."""
        if self._closed:
            raise OSError("endpoint is closed")
        costs = self.kernel.costs
        cost = (
            costs.socket_op + costs.udp_packet
            + costs.checksum_cost(len(data) + 8)
        )
        if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        udp = encode_datagram(
            self.port, dst_port, data, self.service.host.ip, dst_ip
        )
        packet = encapsulate(self.service.host.ip, dst_ip, PROTO_UDP, udp)
        link_dst = yield from self.service.host.resolve_link(dst_ip)
        try:
            yield from self.service.host.netio.send(
                self.service.app,
                self.channel,
                packet,
                link_dst=link_dst,
                # Known peer ring -> hardware demux; else BQI 0 (kernel path).
                bqi=self.peer_bqi.get(dst_ip, 0),
                # Advertise our own ring so the peer can discover it.
                adv_bqi=self.channel.region.bqi,
            )
        except RateLimited:
            # Datagram semantics: an over-budget send is dropped and
            # counted, never queued — the app sees UDP being UDP.
            self.stats["throttled"] += 1
            return False
        self.stats["sent"] += 1
        return True

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def recvfrom(self) -> Generator:
        """Block for the next datagram; returns (data, (src_ip, src_port))."""
        while not self._datagrams:
            if self._closed:
                raise OSError("endpoint is closed")
            yield self.sim.park(self._readers)
        datagram = self._datagrams.popleft()
        cost = self.kernel.costs.socket_op
        if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        # Application boundary: the read hands back owned bytes — the
        # single user copy the receive path still pays.
        payload = bytes(datagram.payload)
        STATS.copied_bytes += len(payload)
        STATS.copy_ops += 1
        return payload, (datagram.src_ip, datagram.src_port)

    def _receive_loop(self) -> Generator:
        costs, cpu = self.kernel.costs, self.kernel.cpu
        while True:
            try:
                batch = yield from self.channel.receive_batch()
            except (ChannelClosed, GeneratorExit, Interrupt):
                # Closed or task terminated.  Anything else is a real bug
                # and surfaces, not hangs the endpoint.
                return
            cost = costs.user_wakeup + 2 * costs.cthread_switch
            if cost and (turn := cpu.spend(cost)) is not None:
                yield turn
            for item in batch:
                packet, link_info = item
                cost = costs.ip_input + costs.udp_packet
                if cost and (turn := cpu.spend(cost)) is not None:
                    yield turn
                if isinstance(packet, PacketBuffer):
                    # Locally forwarded chains (the kernel UDP relay)
                    # fuse here — the one copy the legacy concat made.
                    packet = packet.tobytes()
                # Wire input, untrusted like any other: the IP header,
                # its total length checked, bounds the datagram.
                try:
                    header = Ipv4Header.unpack(packet)
                    datagram = decode_datagram(
                        slice_view(packet, Ipv4Header.LENGTH, header.total_length),
                        header.src,
                        header.dst,
                    )
                except HeaderError:
                    self.stats["bad_header"] += 1
                    continue
                # BQI discovery: remember the peer's advertised ring.
                if link_info is not None and getattr(link_info, "adv_bqi", 0):
                    if self.peer_bqi.get(datagram.src_ip) != link_info.adv_bqi:
                        self.peer_bqi[datagram.src_ip] = link_info.adv_bqi
                        self.stats["bqi_learned"] += 1
                self.stats["received"] += 1
                self._datagrams.append(datagram)
                while self._readers:
                    self._readers.pop().succeed()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> Generator:
        if self._closed:
            return
        self._closed = True
        yield from self.service._release(self.channel)
        while self._readers:
            self._readers.pop().succeed()


def run_rrp(endpoint: UdpEndpoint, engine: "RrpClient | RrpServer"):
    """Drive a sans-io RRP engine over ``endpoint``: a receive loop feeds
    it every datagram and carries out the actions it returns.

    Returns ``call(ip, port, payload)``, a generator for an
    :class:`~repro.protocols.rrp.RrpClient` engine: it starts a
    transaction and returns its response, or ``None`` once the client
    gives up.  The loop ends when the endpoint closes.
    """
    sim = endpoint.sim
    spawn = endpoint.service.app.spawn  # The endpoint's application runs it all.
    waiting: dict[int, Event] = {}

    def execute(actions):
        for action in actions:
            if isinstance(action, SendDatagram):
                yield from endpoint.sendto(action.ip, action.port, action.data)
            elif isinstance(action, SetRetry):
                spawn(retry(action.transaction, action.delay), name="rrp-retry")
            else:  # Complete or Failed: the transaction is over.
                done = waiting.pop(action.transaction, None)
                if done is not None:
                    done.succeed(action.payload if isinstance(action, Complete) else None)

    def retry(transaction, delay):
        yield sim.timeout(delay)
        yield from execute(engine.on_retry(transaction))

    def receive_loop():
        serving = isinstance(engine, RrpServer)
        while True:
            try:
                data, addr = yield from endpoint.recvfrom()
            except OSError:
                return
            if serving:
                actions = engine.on_datagram(data, addr, sim.now)
            else:
                actions = engine.on_datagram(data)
            yield from execute(actions)

    def call(ip: int, port: int, payload: bytes):
        transaction, actions = engine.call(ip, port, payload)
        done = waiting[transaction] = sim.event()
        yield from execute(actions)
        return (yield done)

    spawn(receive_loop(), name=f"rrp-rx-{endpoint.port}")
    return call
