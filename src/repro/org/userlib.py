"""The user-level library organization — the paper's proposed structure.

The protocol library is linked into the application: TCP, IP, and ARP
functions execute in the application's address space, reached by plain
procedure calls.  Connection setup goes through the registry server by
Mach RPC; the established connection's state comes back in the grant,
after which data transfer involves only the library and the network I/O
module (Figure 2's common case) — sends take the specialized trap with
a template check, receives arrive through the shared region with
batched semaphore notifications and are dispatched to per-connection
upcall threads (no PCB lookup).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Generator, Optional

from .. import obs as _obs
from ..counters import Counters
from ..host import Host
from ..mach.ipc import Message, rpc, send
from ..mach.task import Task
from ..net.headers import HeaderError, PROTO_TCP
from ..netio.channels import Channel, ChannelClosed
from ..protocols.ip import IpStack
from ..registry.core import ConnectionGrant
from ..tenancy.tenant import RateLimited
from ..protocols.tcp import (
    ChecksumError, Segment, TcpConfig, decode_segment, encode_header,
)
from ..sim import Interrupt
from .base import TcpConnection, TcpListener, TcpService
from .runner import MachineRunner

if TYPE_CHECKING:  # Breaks the registry<->userlib import cycle.
    from ..registry.server import RegistryServer


class RegistryClient:
    """An application's protocol library as its registry's client: every
    request is a real Mach message on the send right the registry mints."""

    def __init__(self, host: Host, app: Task, registry: "RegistryServer") -> None:
        self.host, self.app, self.registry = host, app, registry
        self.kernel, self.sim = host.kernel, host.sim
        self._registry_right = registry.client_right(app)
        #: ``_rpc(message)``: the RPC's generator, for the caller to ``yield from``.
        self._rpc = partial(rpc, app, self._registry_right)

    def _release(self, channel: Channel) -> Generator:
        """Tell the registry ``channel`` is done with: :func:`send`'s
        generator, returned."""
        return send(self.app, self._registry_right, Message("release", body={"channel": channel}))


class LibraryTcpService(RegistryClient, TcpService):
    """The protocol library instance linked into one application."""

    def __init__(
        self,
        host: Host,
        app: Task,
        registry: "RegistryServer",
        config: Optional[TcpConfig] = None,
        zero_copy: bool = True,
    ) -> None:
        super().__init__(host, app, registry)
        self.stats = Counters()
        #: Ablation switch: when False, the library copies data between
        #: the application buffers and the packet buffers the way a
        #: conventional buffer layer would, instead of building/reading
        #: packets in the shared region directly.
        self.zero_copy = zero_copy
        self.config = config or registry.config
        #: The library links its own IP instance (paper: an application
        #: using TCP links the TCP, IP, and ARP libraries).
        self.ip_lib = IpStack(host.ip)

    def connect(self, remote_ip: int, remote_port: int, local_port: int = 0) -> Generator:
        reply = yield from self._rpc(Message("connect", body={
            "remote_ip": remote_ip, "remote_port": remote_port, "local_port": local_port,
        }))
        if reply.op != "grant":
            raise ConnectionError(str(reply.body))
        return LibraryConnection(self, reply.body)

    def listen(self, port: int) -> Generator:
        reply = yield from self._rpc(Message("listen", body={"port": port}))
        if reply.op != "ok":
            raise OSError(str(reply.body))
        return LibraryListener(self, port)


class LibraryListener(TcpListener):
    """A listening port whose connections the registry establishes."""

    def __init__(self, service: LibraryTcpService, port: int) -> None:
        self.service = service
        self.port = port
        self.closed = False

    def accept(self) -> Generator:
        reply = yield from self.service._rpc(Message("accept", body={"port": self.port}))
        if reply.op != "grant":
            raise ConnectionError(str(reply.body))
        return LibraryConnection(self.service, reply.body)

    def close(self) -> None:
        self.closed = True
        # Fire-and-forget unlisten RPC (a dead task's went in its exit hook).
        if self.service.app.alive:
            self.service.app.spawn(
                self.service._rpc(Message("unlisten", body={"port": self.port})),
                name=f"unlisten-{self.port}",
            )


class LibraryConnection(TcpConnection):
    """A connection owned by the application's protocol library."""

    def __init__(self, service: LibraryTcpService, grant: "ConnectionGrant") -> None:
        self.service = service
        self.kernel = service.kernel
        self.sim = service.sim
        self.channel: Channel = grant.channel
        self.local_port = grant.local_port
        self.remote_ip = grant.remote_ip
        self.remote_port = grant.remote_port
        #: The demux flow the registry installed for this connection.
        #: The library cross-checks it against the grant's addressing:
        #: a channel wired to someone else's flow would let the kernel
        #: deliver a stranger's packets here.
        self.flow_key = grant.channel.flow_key
        if self.flow_key is not None and self.flow_key.is_exact and (
            self.flow_key.local_port != grant.local_port
            or self.flow_key.remote_ip != grant.remote_ip
            or self.flow_key.remote_port != grant.remote_port
        ):
            raise ConnectionError(
                f"grant addressing does not match flow {self.flow_key}"
            )
        self.runner = MachineRunner(
            self.kernel,
            grant.machine,
            emit_fn=self._emit,
            name=f"{service.app.name}:{grant.local_port}",
            task=service.app,
        )
        self.runner.connected = True
        self.runner.rx_buffer.extend(grant.rx_pending)
        self.runner.resume_timers(grant.timers)
        self._released = False
        #: The per-connection upcalled receive thread (paper §3.2:
        #: "protocol control block lookups are eliminated by having
        #: separate threads per connection that are upcalled").
        self._reader = service.app.spawn(
            self._receive_loop(), name=f"rx-{grant.local_port}"
        )

    # ------------------------------------------------------------------
    # Send path: library code + specialized trap into the I/O module
    # ------------------------------------------------------------------

    def _emit(self, segment: Segment, lead_cost: float, retransmit: bool) -> Generator:
        if lead_cost and (turn := self.kernel.cpu.spend(lead_cost)) is not None:
            yield turn
        costs = self.kernel.costs
        host = self.service.host
        head, length = encode_header(segment, host.ip, self.remote_ip)
        cost = costs.tcp_output + costs.checksum_cost(length) + costs.ip_output
        # Built in the shared region, IP and TCP headers one image in
        # front of the payload: no extra copy toward the kernel.
        packets = self.service.ip_lib.send(
            self.remote_ip, PROTO_TCP, segment.payload, mtu=host.mtu, head=head, length=length
        )
        obs = _obs.SESSION
        if obs is not None:
            # Birth of the trace: every transmission (including each
            # retransmission) gets its own id, so one seq number can be
            # followed through several wire attempts.
            obs.mint(
                "tcp.output", packets[0], self.sim.now, self.service.app.name, cost,
                f"seq={segment.seq} len={len(segment.payload)}"
                f" flags={segment.flags:#04x}"
                + (" retransmit" if retransmit else ""),
            )
        # TCP output, checksum and IP output run in the library
        # (application CPU time).
        if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        for packet in packets:
            while True:
                try:
                    yield from self.service.host.netio.send(
                        self.service.app, self.channel, packet
                    )
                    break
                except RateLimited as exc:
                    # The module refuses over-budget packets rather than
                    # queueing them; waiting out the token bucket is the
                    # *library's* job, on the tenant's own CPU time.
                    self.channel.stats["tx_throttled"] += 1
                    yield self.sim.timeout(exc.retry_after)

    # ------------------------------------------------------------------
    # Receive path: shared region -> library thread -> upcall
    # ------------------------------------------------------------------

    def _receive_loop(self) -> Generator:
        costs = self.kernel.costs
        while True:
            try:
                batch = yield from self.channel.receive_batch()
            except (ChannelClosed, GeneratorExit, Interrupt):
                # Closed, task terminated or connection handed off.  Anything
                # else is a real bug and surfaces, not hangs the reader.
                return
            # Per-notification costs, amortized over the whole batch:
            # the kernel->user wakeup of the library thread (paid only
            # when the thread actually slept - a saturated receiver
            # finds packets banked on the semaphore and stays running)
            # plus the two C-Threads switches of the upcall (into the
            # per-connection thread and back).  The paper's batching
            # optimization is exactly this amortization.
            wakeup_cost = costs.user_wakeup + 2 * costs.cthread_switch
            obs = _obs.SESSION
            if obs is not None:
                obs.profiler.charge("lib.wakeup", wakeup_cost)
            if wakeup_cost and (turn := self.kernel.cpu.spend(wakeup_cost)) is not None:
                yield turn
            for packet in batch:
                datagram = self.service.ip_lib.receive(packet, now=self.sim.now)
                if datagram is None:
                    continue
                try:
                    segment = decode_segment(
                        datagram.payload, datagram.src, self.service.host.ip
                    )
                except (ChecksumError, HeaderError):
                    self.service.stats["rx_bad_checksum"] += 1
                    continue
                # Header-prediction fast path for pure ACKs; no PCB
                # lookup either way (per-connection upcall threads).
                tcp_cost = (
                    costs.tcp_input if segment.payload else costs.tcp_input_ack
                )
                rx_cost = (
                    costs.ip_input
                    + costs.checksum_cost(len(datagram.payload))
                    + tcp_cost
                )
                obs = _obs.SESSION
                if obs is not None:
                    obs.book(
                        "tcp.input", packet, self.sim.now,
                        self.service.app.name, rx_cost,
                        f"seq={segment.seq} ack={segment.ack}",
                    )
                if rx_cost and (turn := self.kernel.cpu.spend(rx_cost)) is not None:
                    yield turn
                yield from self.runner.feed_segment(segment)
            if self.runner.closed_reason is not None and not self.channel.rx_queue:
                return

    # ------------------------------------------------------------------
    # Application API (procedure calls into the library)
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> Generator:
        costs = self.kernel.costs
        cost = costs.socket_op
        if not self.service.zero_copy:
            cost += costs.copy_cost(len(data))
        return self.runner.app_send(data, cost)

    def _recv_exit(self, nbytes: int, blocked: bool) -> float:
        # Shared-region buffer organization: no kernel->user copy
        # (unless the ablation re-enables conventional copying).
        costs = self.kernel.costs
        cost = costs.socket_op
        if not self.service.zero_copy:
            cost += costs.copy_cost(nbytes)
        return cost

    def close(self) -> Generator:
        """Orderly release.  Returns once the close is initiated (BSD
        semantics: close() does not wait out TIME-WAIT); the library
        notifies the registry in the background when the connection
        reaches CLOSED, so the port lingers for the 2MSL period."""
        yield from self.runner.app_close()
        self.service.app.spawn(self._finalize(), name="close-reap")

    def _finalize(self) -> Generator:
        yield from self.runner.wait_closed()
        yield from self._do_release()

    def abort(self) -> Generator:
        yield from self.runner.app_abort()
        yield from self._do_release()

    def _do_release(self) -> Generator:
        """The release message's send, for the caller to ``yield from``
        (nothing to send once released)."""
        if self._released:
            return iter(())
        self._released = True
        return self.service._release(self.channel)

    # ------------------------------------------------------------------
    # Connection hand-off (inetd-style, paper §3.2)
    # ------------------------------------------------------------------

    def hand_off(self, new_app: Task, new_service: "LibraryTcpService") -> "LibraryConnection":
        """Pass this established connection to another application
        "without involving the registry server or the network I/O
        module.  The port abstractions provided by the Mach kernel are
        sufficient for this."  The channel (capability) moves to the
        new task; this side must stop using it."""
        if self.runner.closed_reason is not None:
            raise ConnectionError("cannot hand off a closed connection")
        # Quiesce our plumbing without touching the connection state.
        if self._reader.is_alive:
            self._reader.interrupt("handed-off")
        self.channel.owner = new_app  # Capability moves with the message.
        grant = ConnectionGrant.take_over(
            self.runner, self.channel, self.local_port, self.remote_ip,
            self.remote_port, None,
        )
        self._released = True  # The new owner releases, not us.
        return LibraryConnection(new_service, grant)
