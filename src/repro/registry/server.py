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
from typing import Generator, Optional

from ..counters import Counters
from ..host import Host
from ..mach.ipc import Message, receive, reply_to, send
from ..mach.task import Task
from ..net.headers import PROTO_TCP, TCP_RST
from ..netio.module import LinkInfo
from ..protocols.tcp import (
    ChecksumError,
    Segment,
    TcpConfig,
    TcpMachine,
    decode_segment,
    encode_segment,
    reset_for,
)
from ..net.headers import HeaderError
from ..sim import Store
from ..tenancy.tenant import TenantViolation
from .namespace import PortInUse, PortNamespace
from ..org.runner import MachineRunner


@dataclass
class ConnectionGrant:
    """Everything the library needs to take over an established
    connection: the live machine, the channel, and addressing."""

    machine: Optional[TcpMachine]
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


@dataclass
class _ConnectionRecord:
    """Registry-side bookkeeping for a granted connection."""

    grant: ConnectionGrant
    owner: Task
    released: bool = False


@dataclass
class _Listener:
    port: int
    owner: Task
    backlog: Store
    closed: bool = False


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
        self._listeners: dict[int, _Listener] = {}
        #: In-flight handshakes keyed by (local_port, remote_ip, remote_port).
        self._pending: dict[tuple[int, int, int], MachineRunner] = {}
        self._peer_bqi: dict[tuple[int, int, int], int] = {}
        self._records: list[_ConnectionRecord] = []
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
        handler = {
            "listen": self._op_listen,
            "unlisten": self._op_unlisten,
            "accept": self._op_accept,
            "connect": self._op_connect,
            "release": self._op_release,
            "bind_udp": self._op_bind_udp,
            "release_udp": self._op_release_udp,
        }.get(message.op)
        if handler is None:
            if message.reply_to is not None:
                yield from reply_to(
                    self.task, message, Message("error", body="bad op")
                )
            return
        try:
            yield from handler(message)
        except (PortInUse, ConnectionError, LookupError, TenantViolation) as exc:
            if message.reply_to is not None:
                yield from reply_to(
                    self.task, message, Message("error", body=str(exc))
                )

    # ------------------------------------------------------------------
    # Tenancy guard
    # ------------------------------------------------------------------

    def _tenant_of(self, task: Task):
        if self.tenants is None:
            return None
        return self.tenants.tenant_of(task)

    def _guard(self, app: Task, kind: str, check) -> None:
        """Run one tenancy admission check for ``app``.

        Refusals are audited facts regardless; they only *raise* (and
        so reach the app as an error reply) when the manager enforces.
        """
        tenant = self._tenant_of(app)
        if tenant is None:
            return
        try:
            check(tenant)
        except TenantViolation as exc:
            self.tenants.note(self.sim.now, kind, tenant.tenant_id, str(exc))
            if self.tenants.enforcing:
                raise

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_listen(self, message: Message) -> Generator:
        port = message.body["port"]
        app = message.sender
        self.ports.reserve(port, app.name, self.sim.now)
        listener = _Listener(port=port, owner=app, backlog=Store(self.sim))
        # Wildcard flow to the kernel: SYNs for this port classify as a
        # listener hit feeding the handshake path, not a stray miss.
        # The module vets the owner's port grant and attributes the
        # wildcard entry; on refusal the reservation must not leak.
        try:
            self.host.netio.install_listener(
                self.task, PROTO_TCP, port, local_ip=self.host.ip, owner=app
            )
        except Exception:
            self.ports.release(port, self.sim.now, linger=False)
            raise
        self._listeners[port] = listener
        # A dead application's listener must release its port and
        # wildcard flow exactly like its connections are inherited.
        app.on_exit(lambda task, p=port, a=app: self._inherit_listener(p, a))
        yield from reply_to(self.task, message, Message("ok"))

    def _inherit_listener(self, port: int, app: Task) -> None:
        listener = self._listeners.get(port)
        if listener is None or listener.owner is not app or listener.closed:
            return
        self._listeners.pop(port, None)
        listener.closed = True
        self.stats["inherited"] += 1
        self.host.netio.remove_listener(
            self.task, PROTO_TCP, port, local_ip=self.host.ip
        )
        self.ports.release(port, self.sim.now, linger=False)

    def _op_unlisten(self, message: Message) -> Generator:
        port = message.body["port"]
        listener = self._listeners.pop(port, None)
        if listener is not None:
            listener.closed = True
            self.host.netio.remove_listener(
                self.task, PROTO_TCP, port, local_ip=self.host.ip
            )
            self.ports.release(port, self.sim.now, linger=False)
        yield from reply_to(self.task, message, Message("ok"))

    def _op_accept(self, message: Message) -> Generator:
        port = message.body["port"]
        listener = self._listeners.get(port)
        if listener is None:
            yield from reply_to(
                self.task, message, Message("error", body=f"not listening on {port}")
            )
            return
        grant = yield from self._grant_from_store(listener.backlog)
        self.stats["accepts"] += 1
        yield from self._transfer(message, grant)

    def _grant_from_store(self, backlog: Store) -> Generator:
        grant = yield backlog.get()
        return grant

    def _op_connect(self, message: Message) -> Generator:
        remote_ip = message.body["remote_ip"]
        remote_port = message.body["remote_port"]
        local_port = message.body.get("local_port", 0)
        app = message.sender
        costs = self.kernel.costs
        self.stats["connects"] += 1
        breakdown = {"request_at": self.sim.now}

        # Paper breakdown item 2: allocating connection identifiers and
        # the non-overlappable start of connection setup.
        mark = self.sim.now
        yield from self.kernel.cpu.consume(costs.registry_alloc)
        # Tenancy admission *before* any handshake traffic: an explicit
        # source port must be in the caller's grant, and the channel the
        # connection will need must fit the budget — refusing now costs
        # the network nothing.
        if local_port:
            self._guard(app, "connect_refused", lambda t: t.check_port(local_port))
        self._guard(
            app,
            "connect_refused",
            lambda t: t.precheck_channel(
                self.host.netio.DEFAULT_REGION_SIZE
            ),
        )
        if local_port:
            self.ports.reserve(local_port, app.name, self.sim.now)
        else:
            local_port = self.ports.allocate_ephemeral(app.name, self.sim.now)
            tenant = self._tenant_of(app)
            if tenant is not None:
                tenant.grant_ephemeral(local_port)

        link_dst = yield from self.host.resolve_link(remote_ip)
        try:
            ring = self.host.netio.allocate_ring(self.task, owner=app)
        except TenantViolation:
            self.ports.release(local_port, self.sim.now, linger=False)
            raise
        if ring is not None:
            yield from self.kernel.cpu.consume(costs.bqi_setup)
        breakdown["non_overlapped_outbound"] = self.sim.now - mark

        runner = self._make_handshake_runner(
            local_port, remote_ip, remote_port, link_dst, ring
        )
        key = (local_port, remote_ip, remote_port)
        self._pending[key] = runner
        mark = self.sim.now
        yield from runner.start(active=True)
        ok = yield from runner.wait_connected()
        breakdown["remote_and_back"] = self.sim.now - mark
        self._pending.pop(key, None)
        if not ok:
            self._peer_bqi.pop(key, None)
            self.ports.release(local_port, self.sim.now, linger=False)
            # The pre-allocated BQI ring never reached a channel; hand
            # it (and its tenant charge) back or the index leaks.
            self.host.netio.release_ring(self.task, ring)
            yield from reply_to(
                self.task,
                message,
                Message("error", body=f"connect: {runner.closed_reason}"),
            )
            return
        mark = self.sim.now
        try:
            grant = yield from self._finish_connection(
                app, runner, local_port, remote_ip, remote_port, link_dst, ring
            )
        except TenantViolation:
            # The handshake succeeded but the channel was refused
            # (quota exhausted while we were connecting): reset the
            # remote peer, return every resource, report the refusal.
            self._peer_bqi.pop(key, None)
            self.host.netio.release_ring(self.task, ring)
            runner.stop_timers()
            self.task.spawn(
                self._send_rst(
                    local_port,
                    remote_port,
                    runner.machine.tcb.snd_nxt,
                    remote_ip,
                    link_dst,
                ),
                name="refused-rst",
            )
            self.ports.release(local_port, self.sim.now, linger=False)
            raise
        breakdown["channel_setup"] = self.sim.now - mark
        mark = self.sim.now
        yield from self._transfer(message, grant)
        breakdown["state_transfer"] = self.sim.now - mark
        breakdown["reply_at"] = self.sim.now
        self.last_breakdown = breakdown

    def _op_release(self, message: Message) -> Generator:
        """The library finished closing a connection."""
        body = message.body
        for record in list(self._records):
            if record.grant.channel is body.get("channel") and not record.released:
                record.released = True
                self.host.netio.destroy_channel(self.task, record.grant.channel)
                self.ports.release(
                    record.grant.local_port, self.sim.now, linger=True
                )
                self._records.remove(record)
                break
        yield from ()  # One-way message; no reply.

    def _op_bind_udp(self, message: Message) -> Generator:
        """Bind a UDP port and build its protected channel.

        Connectionless binding is the paper's §5 'address binding
        phase': it authorizes the end-point once, after which datagrams
        bypass every server."""
        from ..netio.template import udp_send_template

        port = message.body.get("port", 0)
        app = message.sender
        costs = self.kernel.costs
        yield from self.kernel.cpu.consume(costs.registry_alloc / 2)
        if port:
            self._guard(app, "bind_refused", lambda t: t.check_port(port))
            self.ports.reserve(port, app.name, self.sim.now)
        else:
            port = self.ports.allocate_ephemeral(app.name, self.sim.now)
            tenant = self._tenant_of(app)
            if tenant is not None:
                tenant.grant_ephemeral(port)
        try:
            channel = yield from self.host.netio.create_channel(
                self.task,
                app,
                udp_send_template(self.host.ip, port),
                local_ip=self.host.ip,
                local_port=port,
                protocol="udp",
                with_link_info=True,
            )
        except TenantViolation:
            self.ports.release(port, self.sim.now, linger=False)
            raise
        tenant = self._tenant_of(app)
        if tenant is not None:
            tenant.note_bound(port)
        # Kernel fallback needs no extra bookkeeping: the channel's
        # wildcard flow entry doubles as the forwarder lookup, so
        # datagrams arriving via the kernel path (BQI 0 on AN1, or
        # pre-filter races) still reach the channel.
        record = _ConnectionRecord(
            grant=ConnectionGrant(
                machine=None, channel=channel, local_port=port,
                remote_ip=0, remote_port=0, link_dst=None,
            ),
            owner=app,
        )
        self._records.append(record)
        app.on_exit(lambda task, r=record: self._inherit_udp(r))
        yield from reply_to(
            self.task,
            message,
            Message("grant", body={"port": port, "channel": channel}),
        )

    def _op_release_udp(self, message: Message) -> Generator:
        channel = message.body.get("channel")
        for record in list(self._records):
            if record.grant.channel is channel and not record.released:
                record.released = True
                self._release_udp_record(record)
                self._records.remove(record)
                break
        yield from ()

    def _inherit_udp(self, record: _ConnectionRecord) -> None:
        if record.released:
            return
        record.released = True
        if record in self._records:
            self._records.remove(record)
        self.stats["inherited"] += 1
        self._release_udp_record(record)

    def _release_udp_record(self, record: _ConnectionRecord) -> None:
        port = record.grant.local_port
        self.host.netio.destroy_channel(self.task, record.grant.channel)
        # Datagram ports carry no TIME-WAIT obligation.
        self.ports.release(port, self.sim.now, linger=False)

    # ------------------------------------------------------------------
    # Handshake machinery
    # ------------------------------------------------------------------

    def _iss(self) -> int:
        iss = self._next_iss
        self._next_iss = (self._next_iss + 64_000) % (1 << 32)
        return iss

    def _make_handshake_runner(
        self,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        link_dst: object,
        ring,
    ) -> MachineRunner:
        machine = TcpMachine(
            local_port, remote_port, config=self.config, iss=self._iss()
        )
        adv_bqi = ring.bqi if ring is not None else 0

        def emit(segment: Segment) -> Generator:
            costs = self.kernel.costs
            self.stats["handshake_segments"] += 1
            # The registry reaches the device through standard Mach IPC,
            # not shared memory (paper breakdown item 1).
            yield from self.kernel.cpu.consume(
                costs.registry_device_access
                + costs.tcp_output
                + costs.checksum_cost(segment.wire_length)
            )
            payload = encode_segment(segment, self.host.ip, remote_ip)
            key = (local_port, remote_ip, remote_port)
            peer_bqi = self._peer_bqi.get(key, 0)
            yield from self.host.ip_send(
                remote_ip, PROTO_TCP, payload, link_dst,
                bqi=peer_bqi, adv_bqi=adv_bqi,
            )

        return MachineRunner(
            self.kernel, machine, emit, name=f"registry:{local_port}"
        )

    def _tcp_rx(self, payload: bytes, src_ip: int, link_info: LinkInfo) -> Generator:
        """Kernel-path TCP segments: handshakes and strays only — the
        demultiplexer sends established-connection traffic straight to
        library channels, bypassing this entirely."""
        costs = self.kernel.costs
        yield from self.kernel.cpu.consume(
            costs.registry_device_access + costs.checksum_cost(len(payload))
        )
        try:
            segment = decode_segment(payload, src_ip, self.host.ip)
        except (ChecksumError, HeaderError):
            return
        yield from self.kernel.cpu.consume(costs.tcp_input)
        self.stats["handshake_segments"] += 1
        key = (segment.dport, src_ip, segment.sport)
        if link_info.adv_bqi:
            self._peer_bqi[key] = link_info.adv_bqi
        runner = self._pending.get(key)
        if runner is not None:
            yield from runner.feed_segment(segment)
            return
        listener = self._listeners.get(segment.dport)
        if listener is not None and segment.syn and not segment.has_ack:
            yield from self._passive_open(listener, segment, src_ip, link_info)
            return
        yield from self._respond_rst(segment, src_ip, link_info.src)

    def _passive_open(
        self,
        listener: _Listener,
        syn: Segment,
        src_ip: int,
        link_info: LinkInfo,
    ) -> Generator:
        try:
            ring = self.host.netio.allocate_ring(
                self.task, owner=listener.owner
            )
        except TenantViolation:
            # Listener's tenant out of BQI budget: refuse the SYN.
            yield from self._respond_rst(syn, src_ip, link_info.src)
            return
        if ring is not None:
            yield from self.kernel.cpu.consume(self.kernel.costs.bqi_setup)
        runner = self._make_handshake_runner(
            syn.dport, src_ip, syn.sport, link_info.src, ring
        )
        key = (syn.dport, src_ip, syn.sport)
        self._pending[key] = runner
        yield from runner.start(active=False)
        yield from runner.feed_segment(syn)
        self.task.spawn(
            self._complete_passive(listener, runner, key, src_ip, link_info.src, ring),
            name=f"passive-{syn.sport}",
        )

    def _complete_passive(
        self, listener, runner, key, src_ip, link_src, ring
    ) -> Generator:
        ok = yield from runner.wait_connected()
        self._pending.pop(key, None)
        if not ok or listener.closed:
            self._peer_bqi.pop(key, None)
            self.host.netio.release_ring(self.task, ring)
            return
        local_port, remote_ip, remote_port = key
        try:
            grant = yield from self._finish_connection(
                listener.owner, runner, local_port, remote_ip, remote_port,
                link_src, ring,
            )
        except TenantViolation:
            # Channel refused after the peer connected: reset it and
            # return the ring; the listening port itself stays bound.
            self._peer_bqi.pop(key, None)
            self.host.netio.release_ring(self.task, ring)
            runner.stop_timers()
            yield from self._send_rst(
                local_port,
                remote_port,
                runner.machine.tcb.snd_nxt,
                remote_ip,
                link_src,
            )
            return
        yield listener.backlog.put(grant)

    def _finish_connection(
        self,
        app: Task,
        runner: MachineRunner,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        link_dst: object,
        ring,
    ) -> Generator:
        """Channel setup after a successful handshake (breakdown item 3)."""
        from ..netio.template import tcp_send_template

        costs = self.kernel.costs
        key = (local_port, remote_ip, remote_port)
        channel = yield from self.host.netio.create_channel(
            self.task,
            app,
            tcp_send_template(self.host.ip, local_port, remote_ip, remote_port),
            local_ip=self.host.ip,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            link_dst=link_dst,
            peer_bqi=self._peer_bqi.pop(key, 0),
            ring=ring,
        )
        yield from self.kernel.cpu.consume(costs.registry_channel_misc)
        tenant = self._tenant_of(app)
        if tenant is not None:
            tenant.note_bound(local_port)
        grant = ConnectionGrant(
            machine=runner.machine,
            channel=channel,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            link_dst=link_dst,
            rx_pending=bytes(runner.rx_buffer),
            timers=runner.stop_timers(),
        )
        record = _ConnectionRecord(grant=grant, owner=app)
        self._records.append(record)
        app.on_exit(lambda task, r=record: self._inherit(r))
        return grant

    def _transfer(self, request: Message, grant: ConnectionGrant) -> Generator:
        """Move the established connection's state to the library
        (breakdown item 5), then answer the app's RPC (item 4)."""
        yield from self.kernel.cpu.consume(
            self.kernel.costs.registry_state_transfer
        )
        yield from reply_to(
            self.task,
            request,
            Message("grant", body=grant, inline_bytes=self.STATE_BYTES),
        )

    # ------------------------------------------------------------------
    # Inheritance and resets
    # ------------------------------------------------------------------

    def _inherit(self, record: _ConnectionRecord) -> None:
        """Exit hook: reclaim a dead application's connection."""
        if record.released:
            return
        record.released = True
        if record in self._records:
            self._records.remove(record)
        self.stats["inherited"] += 1
        machine = record.grant.machine
        grant = record.grant
        if machine.state.value not in ("CLOSED", "TIME-WAIT"):
            # Abnormal termination: reset the remote peer.
            self.task.spawn(
                self._send_rst(
                    grant.local_port,
                    grant.remote_port,
                    machine.tcb.snd_nxt,
                    grant.remote_ip,
                    grant.link_dst,
                ),
                name="inherit-rst",
            )
        self.host.netio.destroy_channel(self.task, grant.channel)
        # Hold the port for the protocol-specified delay before reuse.
        self.ports.release(grant.local_port, self.sim.now, linger=True)

    def _send_rst(
        self, sport: int, dport: int, seq: int, remote_ip: int, link_dst: object
    ) -> Generator:
        self.stats["resets_sent"] += 1
        rst = Segment(
            sport=sport, dport=dport, seq=seq, ack=0, flags=TCP_RST, window=0
        )
        payload = encode_segment(rst, self.host.ip, remote_ip)
        yield from self.kernel.cpu.consume(
            self.kernel.costs.registry_device_access
        )
        yield from self.host.ip_send(remote_ip, PROTO_TCP, payload, link_dst)

    def _respond_rst(self, segment: Segment, src_ip: int, link_src: object) -> Generator:
        rst = reset_for(segment, segment.dport, segment.sport)
        if rst is None:
            return
        self.stats["resets_sent"] += 1
        payload = encode_segment(rst, self.host.ip, src_ip)
        yield from self.host.ip_send(src_ip, PROTO_TCP, payload, link_src)
