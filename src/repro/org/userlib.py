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

from typing import TYPE_CHECKING, Generator, Optional

from ..host import Host
from ..mach.ipc import Message, rpc, send
from ..mach.task import Task
from ..net.headers import HeaderError, PROTO_TCP
from ..obs import profile as _profile
from ..obs import spans as _spans
from ..netio.channels import Channel, ChannelClosed
from ..protocols.ip import IpStack
from ..tenancy.tenant import RateLimited
from ..protocols.tcp import (
    ChecksumError,
    Segment,
    TcpConfig,
    TcpMachine,
    TcpSegmentEncoder,
    decode_segment,
)
from ..sim import Interrupt
from .base import TcpConnection, TcpListener, TcpService
from .runner import MachineRunner

if TYPE_CHECKING:  # Breaks the registry<->userlib import cycle.
    from ..registry.server import ConnectionGrant, RegistryServer


class LibraryTcpService(TcpService):
    """The protocol library instance linked into one application."""

    def __init__(
        self,
        host: Host,
        app: Task,
        registry: "RegistryServer",
        config: Optional[TcpConfig] = None,
        zero_copy: bool = True,
    ) -> None:
        self.host = host
        self.app = app
        self.registry = registry
        #: Ablation switch: when False, the library copies data between
        #: the application buffers and the packet buffers the way a
        #: conventional buffer layer would, instead of building/reading
        #: packets in the shared region directly.
        self.zero_copy = zero_copy
        self.config = config or registry.config
        self.kernel = host.kernel
        self.sim = host.sim
        self._registry_right = registry.client_right(app)
        #: The library links its own IP instance (paper: an application
        #: using TCP links the TCP, IP, and ARP libraries).
        self.ip_lib = IpStack(host.ip)

    # ------------------------------------------------------------------
    # Service API (all registry interactions are real Mach RPCs)
    # ------------------------------------------------------------------

    def connect(self, remote_ip: int, remote_port: int, local_port: int = 0) -> Generator:
        reply = yield from rpc(
            self.app,
            self._registry_right,
            Message(
                "connect",
                body={
                    "remote_ip": remote_ip,
                    "remote_port": remote_port,
                    "local_port": local_port,
                },
            ),
        )
        if reply.op != "grant":
            raise ConnectionError(str(reply.body))
        return LibraryConnection(self, reply.body)

    def listen(self, port: int) -> Generator:
        reply = yield from rpc(
            self.app, self._registry_right, Message("listen", body={"port": port})
        )
        if reply.op != "ok":
            raise OSError(str(reply.body))
        return LibraryListener(self, port)

    def _release(self, channel: Channel) -> Generator:
        yield from send(
            self.app,
            self._registry_right,
            Message("release", body={"channel": channel}),
        )


class LibraryListener(TcpListener):
    """A listening port whose connections the registry establishes."""

    def __init__(self, service: LibraryTcpService, port: int) -> None:
        self.service = service
        self.port = port
        self.closed = False

    def accept(self) -> Generator:
        reply = yield from rpc(
            self.service.app,
            self.service._registry_right,
            Message("accept", body={"port": self.port}),
        )
        if reply.op != "grant":
            raise ConnectionError(str(reply.body))
        return LibraryConnection(self.service, reply.body)

    def close(self) -> None:
        self.closed = True
        # Fire-and-forget unlisten RPC.
        self.service.app.spawn(
            _unlisten(self.service, self.port), name=f"unlisten-{self.port}"
        )


def _unlisten(service: LibraryTcpService, port: int) -> Generator:
    yield from rpc(
        service.app, service._registry_right, Message("unlisten", body={"port": port})
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
        #: Template fast-path encoder (paper: the send side preformats
        #: headers; only seq/ack/len/flags change between segments, so
        #: retransmissions reuse the cached image and ack/window moves
        #: are patched with RFC 1624 incremental checksum updates).
        self.encoder = TcpSegmentEncoder(
            sport=grant.local_port,
            dport=grant.remote_port,
            src_ip=service.host.ip,
            dst_ip=grant.remote_ip,
        )
        self.runner = MachineRunner(
            self.kernel,
            grant.machine,
            emit_fn=self._emit,
            name=f"{service.app.name}:{grant.local_port}",
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

    def _emit(self, segment: Segment) -> Generator:
        costs = self.kernel.costs
        # Latched before the first yield: the runner sets it immediately
        # before starting this generator, so the read cannot race other
        # simulation processes.
        retransmit = self.runner.emitting_retransmit
        payload = self.encoder.encode(segment)
        cost = (
            costs.tcp_output
            + costs.checksum_cost(len(payload))
            + costs.ip_output
        )
        prof = _profile.PROFILER
        if prof is not None:
            prof.charge("tcp.output", cost)
        rec = _spans.RECORDER
        if rec is not None:
            # Birth of the trace: every transmission (including each
            # retransmission) gets its own id, so one seq number can be
            # followed through several wire attempts.
            detail = (
                f"seq={segment.seq} len={len(segment.payload)}"
                f" flags={segment.flags:#04x}"
                + (" retransmit" if retransmit else "")
            )
            tid = rec.mint(self.sim.now, detail)
            payload.trace_id = tid
            rec.record(
                tid, "encode", self.sim.now, self.service.app.name,
                detail=detail, cost=cost,
            )
        # TCP output + checksum run in the library (application CPU
        # time); the segment is built directly in the shared region, so
        # there is no extra copy toward the kernel.
        if cost:
            yield self.kernel.cpu.charge(cost)
        packets = self.service.ip_lib.send(
            self.remote_ip, PROTO_TCP, payload, mtu=self.service.host.mtu
        )
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
            except (ChannelClosed, GeneratorExit):
                return
            except Interrupt:
                # Task terminated or connection handed off.  Anything
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
            prof = _profile.PROFILER
            if prof is not None:
                prof.charge("lib.wakeup", wakeup_cost)
            if wakeup_cost:
                yield self.kernel.cpu.charge(wakeup_cost)
            for packet in batch:
                datagram = self.service.ip_lib.receive(packet, now=self.sim.now)
                if datagram is None:
                    continue
                try:
                    segment = decode_segment(
                        datagram.payload, datagram.src, self.service.host.ip
                    )
                except (ChecksumError, HeaderError):
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
                prof = _profile.PROFILER
                if prof is not None:
                    prof.charge("tcp.input", rx_cost)
                rec = _spans.RECORDER
                if rec is not None:
                    rec.touch(
                        packet, "tcp.input", self.sim.now,
                        self.service.app.name,
                        detail=f"seq={segment.seq} ack={segment.ack}",
                        cost=rx_cost,
                    )
                if rx_cost:
                    yield self.kernel.cpu.charge(rx_cost)
                yield from self.runner.feed_segment(segment)
            if self.runner.closed_reason is not None and not self.channel.rx_queue:
                return

    # ------------------------------------------------------------------
    # Application API (procedure calls into the library)
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> Generator:
        cost = self.kernel.costs.socket_op
        if not self.service.zero_copy:
            cost += self.kernel.costs.copy_cost(len(data))
        if cost:
            yield self.kernel.cpu.charge(cost)
        yield from self.runner.app_send(data)

    def recv(self, max_bytes: int) -> Generator:
        data = yield from self.runner.app_recv(max_bytes)
        # Shared-region buffer organization: no kernel->user copy
        # (unless the ablation re-enables conventional copying).
        cost = self.kernel.costs.socket_op
        if not self.service.zero_copy:
            cost += self.kernel.costs.copy_cost(len(data))
        if cost:
            yield self.kernel.cpu.charge(cost)
        return data

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
        if self._released:
            return
        self._released = True
        yield from self.service._release(self.channel)

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
        from ..registry.server import ConnectionGrant

        # Quiesce our plumbing without touching the connection state.
        if self._reader.is_alive:
            self._reader.interrupt("handed-off")
        self.channel.owner = new_app  # Capability moves with the message.
        grant = ConnectionGrant(
            machine=self.runner.machine,
            channel=self.channel,
            local_port=self.local_port,
            remote_ip=self.remote_ip,
            remote_port=self.remote_port,
            link_dst=None,
            rx_pending=bytes(self.runner.rx_buffer),
            timers=self.runner.stop_timers(),
        )
        self._released = True  # The new owner releases, not us.
        return LibraryConnection(new_service, grant)
