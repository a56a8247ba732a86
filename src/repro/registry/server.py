"""The registry server: trusted connection establishment (paper §3.4).

A privileged task, one per protocol per host, that:

* allocates and deallocates connection end-points (TCP ports) — the
  names of communicating entities — so untrusted libraries never mint
  them;
* executes the three-way handshake on the application's behalf,
  reaching the network through standard Mach IPC (the expensive path:
  the paper's Table 4 breakdown attributes most of the 11.9 ms setup to
  exactly this);
* exchanges BQIs with the remote registry through the AN1 link header
  during the handshake;
* asks the network I/O module to set up the protected channel (shared
  region, demux filter or BQI ring, send template) and then *transfers
  the established connection's TCP state into the application library*,
  after which it is completely bypassed on the data path (Figure 2);
* inherits connections at application exit — maintaining the 2MSL
  delay before ports are reused, and issuing a RST to the remote peer
  if the application terminated abnormally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Optional

from ..counters import Counters
from ..host import Host
from ..mach.ipc import Message, receive, reply_to
from ..mach.task import Task
from ..net.headers import PROTO_TCP, TCP_RST
from ..net.nic.an1ctrl import BufferRing
from ..netio.channels import Channel
from ..netio.module import LinkInfo
from ..netio.template import tcp_send_template, udp_send_template
from ..protocols.tcp import (
    ChecksumError,
    Segment,
    State,
    TcpConfig,
    TcpMachine,
    decode_segment,
    encode_segment,
    reset_for,
)
from ..protocols.tcp.seq import MOD
from ..net.headers import HeaderError
from ..sim import Process, Store
from .namespace import PortNamespace
from ..org.runner import MachineRunner


@dataclass
class ConnectionGrant:
    """Everything the library needs to take over an established
    connection: the live machine, the channel, and addressing."""

    machine: TcpMachine
    channel: object
    local_port: int
    remote_ip: int
    remote_port: int
    link_dst: object
    #: Data that arrived while the registry still owned the machine.
    rx_pending: bytes = b""
    #: Timers the machine had armed at the hand-over (name -> deadline),
    #: stopped in the old runner and re-armed by the one that takes over.
    timers: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class _Lease:
    """What one registry operation has acquired so far, and for whom.

    Created at the operation's first allocation and tied to its
    owner's exit from that moment; every later acquisition is a field
    set here, so :meth:`RegistryServer._release` can hand back exactly
    what is held at whatever point the operation stops.  A listener is
    the lease keyed ``(port, 0, 0)`` with a ``backlog``; a UDP binding
    is keyed the same way and holds a channel but no machine.
    """

    owner: Task
    #: The thread working on the lease; its owner's exit interrupts it.
    worker: Process
    local_port: int
    remote_ip: int = 0
    remote_port: int = 0
    #: False for a passive open: the port is its listener's.
    holds_port: bool = True
    link_dst: object = None
    #: The peer registry's ring, read off the link header of a segment
    #: that reached this lease (AN1 BQI exchange).
    peer_bqi: int = 0
    ring: Optional[BufferRing] = None
    #: The handshake's machine and its timers, until the grant is built.
    runner: Optional[MachineRunner] = None
    channel: Optional[Channel] = None
    #: What the library is handed once the channel exists.
    grant: Optional[ConnectionGrant] = None
    #: A listener's established, not yet accepted connections (leases).
    backlog: Optional[Store] = None
    released: bool = False


class RegistryServer:
    """One host's TCP registry."""

    #: Modelled size of the TCP state crossing to the library.
    STATE_BYTES = 512

    def __init__(self, host: Host, config: Optional[TcpConfig] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.kernel = host.kernel
        self.config = config or TcpConfig()
        self.task = host.create_task("registry", privileged=True)
        self._service_rx = self.task.allocate_port("registry-svc")
        self.ports = PortNamespace(msl=self.config.msl)
        #: Everything handed out and not yet given back, keyed by
        #: (local_port, remote_ip, remote_port): handshakes in flight,
        #: granted connections, UDP bindings and listeners alike.
        self._leases: dict[tuple[int, int, int], _Lease] = {}
        self._next_iss = 1
        #: TenantManager when the host is shared among principals; the
        #: registry is the second enforcement point (port grants), the
        #: network I/O module the first (quotas, templates, rate).
        self.tenants = None
        host.tcp_kernel_handler = self._tcp_rx
        self.task.spawn(self._main_loop(), name="main")
        self.stats = Counters()
        #: Phase timings of the most recent active open, in seconds —
        #: the paper's Table 4 breakdown (measured, not assumed).
        self.last_breakdown: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Client-side helpers
    # ------------------------------------------------------------------

    def client_right(self, task: Task):
        """Mint a send right to the registry for an application."""
        right = self.task.make_send_right(self._service_rx)
        self.task.remove_right(right)
        task.insert_right(right)
        return right

    # ------------------------------------------------------------------
    # Main loop: one worker per request
    # ------------------------------------------------------------------

    def _main_loop(self) -> Generator:
        while True:
            message = yield from receive(self.task, self._service_rx)
            self.task.spawn(
                self._dispatch(message), name=f"req-{message.op}"
            )

    def _dispatch(self, message: Message) -> Generator:
        """One request worker.  Whatever escapes the operation — a
        refusal, a failed handshake, the requester's exit interrupting
        it, a bug — gives back the lease it was working on and, while
        the requester can still hear it, is answered with an error: a
        worker never ends holding anything."""
        try:
            handler = getattr(self, f"_op_{message.op}", None)
            if handler is None:
                raise LookupError("bad op")
            yield from handler(message)
        except Exception as exc:
            worker = self.sim.active_process
            for lease in [x for x in self._leases.values() if x.worker is worker]:
                self._release(lease, reset=True)
            reply = message.reply_to
            if reply is not None:
                if reply.port.dead:
                    # Nobody is left to answer: drop the dead name.
                    self.task.remove_right(reply)
                else:
                    yield from reply_to(
                        self.task, message, Message("error", body=str(exc))
                    )

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def _admit(self, app: Task, kind: str, check) -> None:
        """One tenancy admission check for ``app``, audited as ``kind``
        (see :meth:`TenantManager.admit`)."""
        if self.tenants is not None:
            self.tenants.admit(app, self.sim.now, kind, check)

    # ------------------------------------------------------------------
    # Leases: one way in, one way back
    # ------------------------------------------------------------------

    def _open(
        self,
        owner: Task,
        local_port: int,
        remote_ip: int = 0,
        remote_port: int = 0,
        holds_port: bool = True,
        **held,
    ) -> _Lease:
        """An operation's first allocation: the lease itself and, unless
        it is a passive open's (``holds_port=False``), the port —
        ``local_port`` if given, else an ephemeral one minted here."""
        if not owner.alive:
            raise ConnectionError(f"{owner.name} has exited")
        if holds_port:
            if local_port:
                self.ports.reserve(local_port, owner.name, self.sim.now)
            else:
                local_port = self.ports.allocate_ephemeral(
                    owner.name, self.sim.now
                )
                tenant = self.tenants and self.tenants.tenant_of(owner)
                if tenant:
                    tenant.grant_ephemeral(local_port)
        lease = _Lease(
            owner, self.sim.active_process, local_port, remote_ip, remote_port,
            holds_port, **held,
        )
        self._leases[local_port, remote_ip, remote_port] = lease
        owner.on_exit(partial(self._owner_exited, lease))
        return lease

    def _release(
        self, lease: _Lease, linger: bool = False, reset: bool = False
    ) -> None:
        """Give back everything ``lease`` holds — the only way anything
        the registry handed out returns, at whatever stage.

        ``linger`` holds a connection's port for the protocol-specified
        2MSL before reuse (a lease with no machine never lingers);
        ``reset`` tells the remote peer, which may believe in a
        connection nobody here will serve, unless the machine already
        said goodbye.
        """
        if lease.released:
            return
        lease.released = True
        del self._leases[lease.local_port, lease.remote_ip, lease.remote_port]
        netio = self.host.netio
        runner = lease.runner
        if runner is not None:
            if lease.grant is None:
                runner.stop_timers()  # The handshake's: no grant took them over.
            if reset and runner.machine.state not in (State.CLOSED, State.TIME_WAIT):
                self.task.spawn(
                    self._send_rst(lease, runner.machine.tcb.snd_nxt % MOD), name="rst"
                )
        if lease.backlog is not None:
            netio.remove_listener(
                self.task, PROTO_TCP, lease.local_port, local_ip=self.host.ip
            )
            # Connections nobody will accept die with their listener.
            while lease.backlog.items:
                self._release(lease.backlog.items.popleft(), reset=True)
        if lease.channel is not None:
            netio.destroy_channel(self.task, lease.channel)  # and its ring
        else:
            netio.release_ring(self.task, lease.ring)
        if lease.holds_port:
            self.ports.release(
                lease.local_port, self.sim.now,
                linger=linger and runner is not None,
            )
        # Its owner's exit hook outlives it: hold nothing through that.
        lease.runner = lease.channel = lease.grant = None

    def _owner_exited(self, lease: _Lease, task: Task) -> None:
        """Exit hook: inherit a dead application's lease — reset the
        peer if it terminated abnormally, keep the 2MSL delay — and
        stop the operation still working on it, if any."""
        if lease.released:
            return
        holder = lease.channel.owner if lease.channel is not None else task
        if holder is not task:
            # The capability was handed off without involving the
            # registry (paper §3.2): the lease follows the channel.
            lease.owner = holder
            holder.on_exit(partial(self._owner_exited, lease))
            return
        self.stats["inherited"] += 1
        self._release(lease, linger=True, reset=True)
        if lease.worker.is_alive:
            lease.worker.interrupt("owner-exited")

    def _listener(self, port: int) -> Optional[_Lease]:
        lease = self._leases.get((port, 0, 0))
        return lease if lease is not None and lease.backlog is not None else None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_listen(self, message: Message) -> Generator:
        app = message.sender
        lease = self._open(app, message.body["port"])
        # Wildcard flow to the kernel: SYNs for this port classify as a
        # listener hit feeding the handshake path, not a stray miss.
        # The module vets the owner's port grant and attributes the
        # wildcard entry.
        self.host.netio.install_listener(
            self.task, PROTO_TCP, lease.local_port, local_ip=self.host.ip, owner=app
        )
        lease.backlog = Store(self.sim)
        yield from reply_to(self.task, message, Message("ok"))

    def _op_unlisten(self, message: Message) -> Generator:
        lease = self._listener(message.body["port"])
        if lease is not None:
            self._release(lease)
        yield from reply_to(self.task, message, Message("ok"))

    def _op_accept(self, message: Message) -> Generator:
        port = message.body["port"]
        listener = self._listener(port)
        if listener is None:
            raise LookupError(f"not listening on {port}")
        lease = yield listener.backlog.get()
        self.stats["accepts"] += 1
        yield from self._transfer(message, lease)

    def _op_connect(self, message: Message) -> Generator:
        body = message.body
        local_port = body.get("local_port", 0)
        app = message.sender
        costs = self.kernel.costs
        self.stats["connects"] += 1
        breakdown = {"request_at": self.sim.now}

        # Paper breakdown item 2: allocating connection identifiers and
        # the non-overlappable start of connection setup.
        mark = self.sim.now
        if costs.registry_alloc:
            yield self.kernel.cpu.charge(costs.registry_alloc)
        # Tenancy admission *before* any handshake traffic: an explicit
        # source port must be in the caller's grant, and the channel the
        # connection will need must fit the budget — refusing now costs
        # the network nothing.
        if local_port:
            self._admit(app, "connect_refused", lambda t: t.check_port(local_port))
        self._admit(
            app,
            "connect_refused",
            lambda t: t.precheck_channel(self.host.netio.DEFAULT_REGION_SIZE),
        )
        lease = self._open(app, local_port, body["remote_ip"], body["remote_port"])
        lease.link_dst = yield from self.host.resolve_link(lease.remote_ip)
        lease.ring = self.host.netio.allocate_ring(self.task, owner=app)
        if lease.ring is not None and costs.bqi_setup:
            yield self.kernel.cpu.charge(costs.bqi_setup)
        breakdown["non_overlapped_outbound"] = self.sim.now - mark

        runner = lease.runner = self._handshake_runner(lease)
        mark = self.sim.now
        yield from runner.start(active=True)
        if not (yield from runner.wait_connected()):
            raise ConnectionError(f"connect: {runner.closed_reason}")
        breakdown["remote_and_back"] = self.sim.now - mark
        mark = self.sim.now
        yield from self._finish_connection(lease)
        breakdown["channel_setup"] = self.sim.now - mark
        mark = self.sim.now
        yield from self._transfer(message, lease)
        breakdown["state_transfer"] = self.sim.now - mark
        breakdown["reply_at"] = self.sim.now
        self.last_breakdown = breakdown

    def _op_release(self, message: Message) -> Generator:
        """The library is done with a connection or a UDP binding."""
        channel = message.body["channel"]
        flow = channel.flow_key  # None once destroyed: nothing left to name.
        lease = flow and self._leases.get(
            (flow.local_port, flow.remote_ip, flow.remote_port)
        )
        if lease and lease.channel is channel:
            self._release(lease, linger=True)
        yield from ()  # One-way message; no reply.

    def _op_bind_udp(self, message: Message) -> Generator:
        """Bind a UDP port and build its protected channel.

        Connectionless binding is the paper's §5 'address binding
        phase': it authorizes the end-point once, after which datagrams
        bypass every server."""
        port = message.body.get("port", 0)
        app = message.sender
        cost = self.kernel.costs.registry_alloc / 2
        if cost:
            yield self.kernel.cpu.charge(cost)
        if port:
            self._admit(app, "bind_refused", lambda t: t.check_port(port))
        lease = self._open(app, port)
        port = lease.local_port
        # Kernel fallback needs no extra bookkeeping: the channel's
        # wildcard flow entry doubles as the forwarder lookup, so
        # datagrams arriving via the kernel path (BQI 0 on AN1, or
        # pre-filter races) still reach the channel.
        lease.channel = yield from self.host.netio.create_channel(
            self.task,
            app,
            udp_send_template(self.host.ip, port),
            local_ip=self.host.ip,
            local_port=port,
            protocol="udp",
            with_link_info=True,
        )
        yield from reply_to(
            self.task,
            message,
            Message("grant", body={"port": port, "channel": lease.channel}),
        )

    # ------------------------------------------------------------------
    # Handshake machinery
    # ------------------------------------------------------------------

    def _iss(self) -> int:
        iss = self._next_iss
        self._next_iss = (self._next_iss + 64_000) % (1 << 32)
        return iss

    def _handshake_runner(self, lease: _Lease) -> MachineRunner:
        machine = TcpMachine(
            lease.local_port, lease.remote_port, config=self.config, iss=self._iss()
        )
        remote_ip = lease.remote_ip
        adv_bqi = lease.ring.bqi if lease.ring is not None else 0

        def emit(segment: Segment) -> Generator:
            costs = self.kernel.costs
            self.stats["handshake_segments"] += 1
            # The registry reaches the device through standard Mach IPC,
            # not shared memory (paper breakdown item 1).
            cost = (
                costs.registry_device_access
                + costs.tcp_output
                + costs.checksum_cost(segment.wire_length)
            )
            if cost:
                yield self.kernel.cpu.charge(cost)
            payload = encode_segment(segment, self.host.ip, remote_ip)
            yield from self.host.ip_send(
                remote_ip, PROTO_TCP, payload, lease.link_dst,
                bqi=lease.peer_bqi, adv_bqi=adv_bqi,
            )

        return MachineRunner(
            self.kernel, machine, emit, name=f"registry:{lease.local_port}"
        )

    def _tcp_rx(self, payload: bytes, src_ip: int, link_info: LinkInfo) -> Generator:
        """Kernel-path TCP segments: handshakes and strays only — the
        demultiplexer sends established-connection traffic straight to
        library channels, bypassing this entirely."""
        costs = self.kernel.costs
        cpu = self.kernel.cpu
        cost = costs.registry_device_access + costs.checksum_cost(len(payload))
        if cost:
            yield cpu.charge(cost)
        try:
            segment = decode_segment(payload, src_ip, self.host.ip)
        except (ChecksumError, HeaderError):
            return
        if costs.tcp_input:
            yield cpu.charge(costs.tcp_input)
        self.stats["handshake_segments"] += 1
        lease = self._leases.get((segment.dport, src_ip, segment.sport))
        if lease is None:
            listener = self._listener(segment.dport)
            if listener is not None and segment.syn and not segment.has_ack:
                yield from self._passive_open(listener, segment, src_ip, link_info)
                return
        elif lease.runner is not None and lease.channel is None:
            # A handshake in flight.  The peer's advertised ring is a
            # field of the lease the segment reached, or is not stored.
            if link_info.adv_bqi:
                lease.peer_bqi = link_info.adv_bqi
            yield from lease.runner.feed_segment(segment)
            return
        yield from self._respond_rst(segment, src_ip, link_info.src)

    def _passive_open(
        self,
        listener: _Lease,
        syn: Segment,
        src_ip: int,
        link_info: LinkInfo,
    ) -> Generator:
        lease = self._open(
            listener.owner, syn.dport, src_ip, syn.sport,
            link_dst=link_info.src, peer_bqi=link_info.adv_bqi, holds_port=False,
        )
        try:
            lease.ring = self.host.netio.allocate_ring(self.task, owner=lease.owner)
            cost = self.kernel.costs.bqi_setup
            if lease.ring is not None and cost:
                yield self.kernel.cpu.charge(cost)
            lease.runner = self._handshake_runner(lease)
            yield from lease.runner.start(active=False)
            yield from lease.runner.feed_segment(syn)
        except Exception:
            # No ring within the listener's budget, or its owner gone
            # mid-answer: the SYN is refused like one to a closed port.
            self._release(lease, reset=True)
            yield from self._respond_rst(syn, src_ip, link_info.src)
            return
        lease.worker = self.task.spawn(
            self._complete_passive(lease, listener), name=f"passive-{syn.sport}"
        )

    def _complete_passive(self, lease: _Lease, listener: _Lease) -> Generator:
        try:
            if not (yield from lease.runner.wait_connected()):
                raise ConnectionError(lease.runner.closed_reason)
            yield from self._finish_connection(lease)
            if listener.released:
                raise ConnectionError("listener closed")
            yield listener.backlog.put(lease)
        except Exception:
            # Failed, refused a channel, or nobody left to accept it:
            # the listening port itself stays its listener's.
            self._release(lease, reset=True)

    def _finish_connection(self, lease: _Lease) -> Generator:
        """Channel setup after a successful handshake (breakdown item 3)."""
        runner = lease.runner
        lease.channel = yield from self.host.netio.create_channel(
            self.task,
            lease.owner,
            tcp_send_template(
                self.host.ip, lease.local_port, lease.remote_ip, lease.remote_port
            ),
            local_ip=self.host.ip,
            local_port=lease.local_port,
            remote_ip=lease.remote_ip,
            remote_port=lease.remote_port,
            link_dst=lease.link_dst,
            peer_bqi=lease.peer_bqi,
            ring=lease.ring,
        )
        cost = self.kernel.costs.registry_channel_misc
        if cost:
            yield self.kernel.cpu.charge(cost)
        if runner.closed_reason is not None:
            # The peer gave up while the channel was being built.
            raise ConnectionError(f"connect: {runner.closed_reason}")
        lease.grant = ConnectionGrant(
            machine=runner.machine,
            channel=lease.channel,
            local_port=lease.local_port,
            remote_ip=lease.remote_ip,
            remote_port=lease.remote_port,
            link_dst=lease.link_dst,
            rx_pending=bytes(runner.rx_buffer),
            timers=runner.stop_timers(),
        )

    def _transfer(self, request: Message, lease: _Lease) -> Generator:
        """Move the established connection's state to the library
        (breakdown item 5), then answer the app's RPC (item 4)."""
        cost = self.kernel.costs.registry_state_transfer
        if cost:
            yield self.kernel.cpu.charge(cost)
        yield from reply_to(
            self.task,
            request,
            Message("grant", body=lease.grant, inline_bytes=self.STATE_BYTES),
        )

    # ------------------------------------------------------------------
    # Resets
    # ------------------------------------------------------------------

    def _send_rst(self, lease: _Lease, seq: int) -> Generator:
        self.stats["resets_sent"] += 1
        rst = Segment(
            sport=lease.local_port, dport=lease.remote_port,
            seq=seq, ack=0, flags=TCP_RST, window=0,
        )
        payload = encode_segment(rst, self.host.ip, lease.remote_ip)
        cost = self.kernel.costs.registry_device_access
        if cost:
            yield self.kernel.cpu.charge(cost)
        # To the peer's ring: BQI 0 would land in its kernel, whose
        # registry no longer owns the connection.
        yield from self.host.ip_send(
            lease.remote_ip, PROTO_TCP, payload, lease.link_dst, bqi=lease.peer_bqi
        )

    def _respond_rst(self, segment: Segment, src_ip: int, link_src: object) -> Generator:
        rst = reset_for(segment, segment.dport, segment.sport)
        if rst is None:
            return
        self.stats["resets_sent"] += 1
        payload = encode_segment(rst, self.host.ip, src_ip)
        yield from self.host.ip_send(src_ip, PROTO_TCP, payload, link_src)
