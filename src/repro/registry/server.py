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

What is held, for whom, and what goes back when is decided by
:class:`~repro.registry.core.RegistryCore`.  This module is the
Mach-IPC shell around it: the request threads with their waits and CPU
charges, the handshake's wire, and the registry's share of applying
what the core hands back.  Its kernel-path input is the in-kernel
stack's (:class:`~repro.registry.kernelpath.KernelPath`).
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from ..host import Host
from ..mach.ipc import Message, receive, reply_to
from ..mach.ports import DeadPortError
from ..mach.task import Task
from ..net.headers import PROTO_TCP, TCP_RST
from ..netio.template import tcp_send_template, udp_send_template
from ..org.runner import MachineRunner
from ..protocols.tcp import Segment, TcpConfig, TcpMachine, encode_header
from .core import ConnectionGrant, Lease
from .kernelpath import KernelPath


class RegistryServer(KernelPath):
    """One host's TCP registry: the kernel-path TCP input
    (:class:`KernelPath`) that stops at ESTABLISHED."""

    #: Modelled size of the TCP state crossing to the library.
    STATE_BYTES = 512

    def __init__(self, host: Host, config: Optional[TcpConfig] = None) -> None:
        super().__init__(host, config)
        self.task = host.create_task("registry", privileged=True)
        self._spawn = self.task.spawn
        self._service_rx = self.task.allocate_port("registry-svc")
        #: TenantManager when the host is shared among principals; the
        #: registry is the second enforcement point (port grants), the
        #: network I/O module the first (quotas, templates, rate).
        self.tenants = None
        self.task.spawn(self._main_loop(), name="main")
        #: Phase timings of the most recent active open, in seconds —
        #: the paper's Table 4 breakdown (measured, not assumed).
        self.last_breakdown: dict[str, float] = {}

    def client_right(self, task: Task):
        """Mint a send right to the registry for an application."""
        right = self.task.make_send_right(self._service_rx)
        self.task.remove_right(right)
        task.insert_right(right)
        return right

    def _main_loop(self) -> Generator:
        """A release (one-way) and an accept (it parks, or hands a ready
        connection to a worker) are served here and return no work; any
        other op's body, and a refusal, is a thread of its own."""
        while True:
            message = yield from receive(self.task, self._service_rx)
            op = message.op
            try:
                body = getattr(self, f"_op_{op}", None)
                if body is None:
                    raise LookupError("bad op")
                work = body(message)
                if work is not None:
                    self.task.spawn(work, name=f"req-{op}")
            except Exception as exc:
                self.task.spawn(self._refuse(message, exc), name=f"req-{op}")

    def _refuse(self, message: Message, exc: Exception) -> Generator:
        """Whatever escaped an operation — a refusal, a failed handshake,
        the requester's exit interrupting it, a bug — gives back the lease
        it was working on and, while the requester can still hear it, is
        answered with an error: a worker never ends holding anything."""
        self._give_back(self.core.failed(self.sim.active_process, self.sim.now))
        reply = message.reply_to
        if reply is None:
            return
        try:
            if reply.is_send and not reply.port.dead:
                yield from reply_to(self.task, message, Message("error", body=str(exc)))
                return
        except DeadPortError:  # The requester went while it was answered.
            pass
        self.task.remove_right(reply)  # Nobody can hear it: drop the name.

    def _admit(self, app: Task, check) -> None:
        """One tenancy admission check for ``app``
        (:meth:`TenantManager.admit`)."""
        if self.tenants is not None:
            self.tenants.admit(app, check)

    def _open(self, owner: Task, local_port: int, *addressing, **fields) -> Lease:
        """The core's lease for the running thread, its owner's exit
        hooked from this instant (one hook per owner, however many
        leases it opens)."""
        if not owner.alive:
            raise ConnectionError(f"{owner.name} has exited")
        lease = self.core.open(
            owner, self.sim.active_process, self.sim.now, local_port, *addressing, **fields
        )
        owner.on_exit(self._owner_exited)
        return lease

    def _hand_back(self, lease: Lease, rst_seq: Optional[int]) -> None:
        """The registry's share of giving back one lease: the only code
        here that sends an unsolicited RST, or returns a channel, a ring
        or a listener's flow to the network I/O module."""
        netio = self.host.netio
        if rst_seq is not None:
            # To the peer's ring: BQI 0 would land in its kernel, whose
            # registry no longer owns the connection.
            rst = Segment.build(
                (lease.local_port, lease.remote_port, rst_seq, 0, TCP_RST, 0, b"", None)
            )
            self.task.spawn(self._send_reset(
                rst, lease.remote_ip, lease.link_dst, lease.peer_bqi,
                self.kernel.costs.registry_device_access,
            ), name="rst")
        if lease.backlog is not None:
            netio.remove_listener(self.task, PROTO_TCP, lease.local_port, local_ip=self.host.ip)
        if lease.channel is not None:
            netio.destroy_channel(self.task, lease.channel)  # and its ring
        else:
            netio.release_ring(self.task, lease.ring)

    def _owner_exited(self, task: Task) -> None:
        """Exit hook: each lease ``task`` still owns goes back, and the
        operation working on it is stopped, unless the lease followed its
        channel to a new owner, whose own exit hook then covers it."""
        for lease in [lease for lease in self.core.leases.values() if lease.owner is task]:
            records = self.core.exited(lease, task, self.sim.now)
            if records:
                self.stats["inherited"] += 1
                self._give_back(records)
                if lease.worker.is_alive:
                    lease.worker.interrupt("owner-exited")
            elif lease.owner is not task:
                lease.owner.on_exit(self._owner_exited)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_listen(self, message: Message) -> Generator:
        try:
            app = message.sender
            lease = self._open(app, message.body["port"])
            # Wildcard flow to the kernel: SYNs for this port classify as a
            # listener hit feeding the handshake path, not a stray miss (the
            # module vets the owner's port grant and attributes the entry).
            self.host.netio.install_listener(
                self.task, PROTO_TCP, lease.local_port, local_ip=self.host.ip, owner=app
            )
            lease.backlog, lease.parked = deque(), deque()
            yield from reply_to(self.task, message, Message("ok"))
        except Exception as exc:
            yield from self._refuse(message, exc)

    def _op_unlisten(self, message: Message) -> Generator:
        try:
            lease = self.core.listener(message.body["port"])
            if lease is not None:
                self._give_back(self.core.release(lease, self.sim.now))
            yield from reply_to(self.task, message, Message("ok"))
        except Exception as exc:
            yield from self._refuse(message, exc)

    def _op_accept(self, message: Message) -> None:
        """An accept takes a ready connection on a worker of its own, or
        parks on its listener as a message, with no thread, until the
        passive open that completes one grants it (``_grant``)."""
        port = message.body["port"]
        listener = self.core.listener(port)
        if listener is None:
            raise LookupError(f"not listening on {port}")
        if listener.backlog:
            lease = listener.backlog.popleft()
            self.core.assign(lease, self.task.spawn(self._grant(message, lease), name="req-accept"))
        else:
            listener.parked.append(message)

    def _grant(self, message: Message, lease: Lease) -> Generator:
        """Hand ``lease`` to an accept (breakdown items 5 and 4, as in a
        connect) on the lease's worker: a grant that fails gives it back."""
        try:
            self.stats["accepts"] += 1
            cost = self.kernel.costs.registry_state_transfer
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            grant = Message("grant", body=lease.grant, inline_bytes=self.STATE_BYTES)
            yield from reply_to(self.task, message, grant)
        except Exception as exc:
            yield from self._refuse(message, exc)

    def _stale(self, message: Message) -> bool:
        """A parked accept nobody can hear any more: drop its dead name."""
        reply = message.reply_to
        if reply is not None and reply.port.dead:
            self.task.remove_right(reply)
        return reply is None or reply.port.dead

    def _turn_away(self, message: Message, error: Exception) -> None:
        self.task.spawn(self._refuse(message, error), name="req-accept")

    def _op_connect(self, message: Message) -> Generator:
        try:
            body = message.body
            local_port = body.get("local_port", 0)
            app = message.sender
            costs = self.kernel.costs
            self.stats["connects"] += 1
            breakdown = {"request_at": self.sim.now}

            # Paper breakdown item 2: allocating connection identifiers and
            # the non-overlappable start of connection setup.
            mark = self.sim.now
            cost = costs.registry_alloc
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            # Admission *before* any handshake traffic: an explicit source
            # port must be in the caller's grant, and the channel the
            # connection will need must fit its tenant's budget and the
            # host's wired pool — refusing now costs the network nothing.
            if local_port:
                self._admit(app, lambda t: t.check_port(local_port))
            netio = self.host.netio
            netio.check_room(app, netio.DEFAULT_REGION_SIZE)
            lease = self._open(app, local_port, body["remote_ip"], body["remote_port"])
            lease.link_dst = yield from self.host.resolve_link(lease.remote_ip)
            yield from self._handshake(lease)
            breakdown["non_overlapped_outbound"] = self.sim.now - mark

            runner = lease.runner
            mark = self.sim.now
            yield from runner.start(active=True)
            if not (yield from runner.wait_connected()):
                raise ConnectionError(f"connect: {runner.closed_reason}")
            breakdown["remote_and_back"] = self.sim.now - mark
            # Channel setup (breakdown item 3).
            mark = self.sim.now
            yield from self._established(lease)
            breakdown["channel_setup"] = self.sim.now - mark
            # Move the established connection's state to the library
            # (breakdown item 5), then answer the app's RPC (item 4).
            mark = self.sim.now
            cost = costs.registry_state_transfer
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            grant = Message("grant", body=lease.grant, inline_bytes=self.STATE_BYTES)
            yield from reply_to(self.task, message, grant)
            breakdown["state_transfer"] = self.sim.now - mark
            breakdown["reply_at"] = self.sim.now
            self.last_breakdown = breakdown
        except Exception as exc:
            yield from self._refuse(message, exc)

    def _op_release(self, message: Message) -> None:
        """The library is done with a connection or a UDP binding."""
        channel = message.body["channel"]
        flow = channel.flow_key  # None once destroyed: nothing left to name.
        lease = flow and self.core.leases.get((flow.local_port, flow.remote_ip, flow.remote_port))
        if lease and lease.channel is channel:
            self._give_back(self.core.release(lease, self.sim.now, linger=True))

    def _op_bind_udp(self, message: Message) -> Generator:
        """Bind a UDP port and build its protected channel: the paper's §5
        'address binding phase', after which datagrams bypass every server."""
        try:
            port = message.body.get("port", 0)
            app = message.sender
            cost = self.kernel.costs.registry_alloc / 2
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            if port:
                self._admit(app, lambda t: t.check_port(port))
            lease = self._open(app, port)
            port = lease.local_port
            # The channel's wildcard flow entry doubles as the kernel path's
            # forwarder lookup (BQI 0 on AN1, pre-filter races).
            lease.channel = yield from self.host.netio.create_channel(
                self.task, app, udp_send_template(self.host.ip, port),
                local_ip=self.host.ip, local_port=port, protocol="udp", with_link_info=True,
            )
            grant = Message("grant", body={"port": port, "channel": lease.channel})
            yield from reply_to(self.task, message, grant)
        except Exception as exc:
            yield from self._refuse(message, exc)

    # ------------------------------------------------------------------
    # The kernel path's steps (KernelPath): handshakes and resets
    # ------------------------------------------------------------------

    def handshake_runner(self, lease: Lease) -> MachineRunner:
        """The runner of ``lease``'s handshake, on the core's next ISS."""
        machine = TcpMachine(
            lease.local_port, lease.remote_port, config=self.config, iss=self.core.iss()
        )
        remote_ip = lease.remote_ip
        adv_bqi = lease.ring.bqi if lease.ring is not None else 0

        def emit(segment: Segment, lead_cost: float, retransmit: bool) -> Generator:
            if lead_cost and (turn := self.kernel.cpu.spend(lead_cost)) is not None:
                yield turn
            costs = self.kernel.costs
            self.stats["handshake_segments"] += 1
            # The registry reaches the device through standard Mach IPC,
            # not shared memory (paper breakdown item 1).
            head, length = encode_header(segment, self.host.ip, remote_ip)
            cost = costs.registry_device_access + costs.tcp_output
            cost += costs.checksum_cost(length)
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            yield from self.host.ip_send(
                remote_ip, PROTO_TCP, segment.payload, lease.link_dst,
                bqi=lease.peer_bqi, adv_bqi=adv_bqi, head=head, length=length,
            )

        return MachineRunner(
            self.kernel, machine, emit, name=f"registry:{lease.local_port}", task=self.task
        )

    def _handshake(self, lease: Lease) -> Generator:
        """The lease's ring, then its handshake's runner."""
        lease.ring = self.host.netio.allocate_ring(self.task, owner=lease.owner)
        cost = self.kernel.costs.bqi_setup
        if lease.ring is not None and cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        lease.runner = self.handshake_runner(lease)

    def _established(self, lease: Lease) -> Generator:
        """Channel setup (breakdown item 3), then the grant that moves
        the connection to its library."""
        runner = lease.runner
        addressing = (lease.local_port, lease.remote_ip, lease.remote_port)
        lease.channel = yield from self.host.netio.create_channel(
            self.task, lease.owner, tcp_send_template(self.host.ip, *addressing),
            local_ip=self.host.ip, local_port=lease.local_port, remote_ip=lease.remote_ip,
            remote_port=lease.remote_port, link_dst=lease.link_dst, peer_bqi=lease.peer_bqi,
            ring=lease.ring,
        )
        cost = self.kernel.costs.registry_channel_misc
        if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        if runner.closed_reason is not None:  # The peer gave up meanwhile.
            raise ConnectionError(f"connect: {runner.closed_reason}")
        lease.grant = ConnectionGrant.take_over(runner, lease.channel, *addressing, lease.link_dst)

    def _rx_costs(self, segment: Optional[Segment], nbytes: int) -> tuple:
        """Reaching the device by Mach IPC, and the checksum; then TCP input."""
        costs = self.kernel.costs
        if segment is not None:
            self.stats["handshake_segments"] += 1
        return costs.registry_device_access + costs.checksum_cost(nbytes), costs.tcp_input

    def _send_reset(
        self, rst: Segment, remote_ip: int, link_dst: object, bqi: int = 0, cost: float = 0.0
    ) -> Generator:
        """A stray's RST, or (to the peer's ring ``bqi``, after the Mach IPC
        ``cost`` of reaching the device) one a given-back lease's peer is owed."""
        self.stats["resets_sent"] += 1
        head, length = encode_header(rst, self.host.ip, remote_ip)
        if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
            yield turn
        yield from self.host.ip_send(
            remote_ip, PROTO_TCP, rst.payload, link_dst, bqi=bqi, head=head, length=length
        )
