"""The monolithic protocol organizations (left side of paper Figure 1).

One :class:`MonolithicTcpStack` implementation serves four variants,
distinguished only by their :class:`~repro.org.base.PathProfile`:

* **Ultrix in-kernel** — app traps into the kernel; the stack runs in
  kernel context next to the driver.
* **Mach/UX single-server (mapped device)** — app reaches the UX server
  by Mach IPC; the server maps the device and drives it directly.
* **Mach/UX single-server (unmapped device)** — as above, but the
  kernel driver and the server exchange messages per packet (the paper
  notes this variant performs worse than the mapped one).
* **Dedicated servers** — one server per protocol stack plus separate
  device management: extra address-space crossings on the common path
  (the organization the paper's design explicitly outperforms).

The TCP/IP code executed is the *same sans-io stack* our library
organization runs — the paper's "apples to apples" setup.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..costs import CostModel
from ..host import Host
from ..net.headers import PROTO_TCP
from ..netio.module import LinkInfo
from ..protocols.tcp import (
    ChecksumError, Segment, TcpConfig, TcpMachine, decode_segment, encode_segment, reset_for,
)
from ..net.headers import HeaderError
from ..registry.core import Lease, RegistryCore
from ..sim import Store
from .base import PathProfile, TcpConnection, TcpListener, TcpService, no_cost
from .runner import MachineRunner


# ----------------------------------------------------------------------
# Path profiles
# ----------------------------------------------------------------------


def _copy_in_bsd(costs: CostModel, nbytes: int) -> float:
    """BSD/Ultrix user↔kernel data movement.

    The paper: Ultrix has the same copy-eliminating buffer organization
    we do, "but it is invoked only when the user packet size is 1024
    bytes or larger" — below that it pays the byte copy.
    """
    if nbytes >= 1024:
        return 120e-6  # Page-remap bookkeeping instead of a copy.
    # Small transfers pay the byte copy plus mbuf-chain handling.
    return costs.copy_cost(nbytes) + costs.mbuf_small


ULTRIX = PathProfile(
    name="ultrix-inkernel",
    send_entry=lambda c, n: c.syscall_trap + c.socket_op + _copy_in_bsd(c, n),
    send_device=no_cost,  # The stack runs beside the driver.
    recv_dispatch=no_cost,  # Interrupt context flows into tcp_input.
    # Per read(): trap + socket work + the data movement.  The wakeup
    # context switch is charged separately, only when the read blocked.
    recv_exit=lambda c, n: c.syscall_trap + c.socket_op + _copy_in_bsd(c, n),
    pcb_lookup=True,
    setup_overhead=0.9e-3,
    ipc_counts=(0, 0, 0, 0),
)

MACH_UX_MAPPED = PathProfile(
    name="machux-single-server",
    # write(): IPC to the UX server carrying the data, plus the reply.
    send_entry=lambda c, n: c.ipc_cost(n) + c.mach_ipc + c.socket_op,
    # Mapped device: the server pokes it directly; small user-space
    # device-access premium.
    send_device=lambda c, n: 50e-6,
    # Interrupt in the kernel, then a dispatch to the server task.
    recv_dispatch=lambda c, n: c.context_switch,
    # read(): data crosses server→app by IPC.
    recv_exit=lambda c, n: c.ipc_cost(n) + c.mach_ipc,
    pcb_lookup=True,
    setup_overhead=4.0e-3,
    ipc_counts=(2, 0, 0, 2),
)

MACH_UX_UNMAPPED = PathProfile(
    name="machux-unmapped",
    send_entry=MACH_UX_MAPPED.send_entry,
    # Device in the kernel: each packet crosses server→kernel by message.
    send_device=lambda c, n: c.ipc_cost(n),
    recv_dispatch=lambda c, n: c.context_switch + c.ipc_cost(n),
    recv_exit=MACH_UX_MAPPED.recv_exit,
    pcb_lookup=True,
    setup_overhead=4.5e-3,
    ipc_counts=(2, 1, 1, 2),
)

DEDICATED_SERVERS = PathProfile(
    name="dedicated-servers",
    # app → protocol server, protocol server → device server, each hop
    # a full message with the data.
    send_entry=lambda c, n: c.ipc_cost(n) + c.mach_ipc + c.socket_op,
    send_device=lambda c, n: c.ipc_cost(n) + c.mach_ipc,
    recv_dispatch=lambda c, n: c.context_switch + c.ipc_cost(n) + c.mach_ipc,
    recv_exit=lambda c, n: c.ipc_cost(n) + c.mach_ipc + c.context_switch,
    pcb_lookup=True,
    setup_overhead=5.5e-3,
    ipc_counts=(2, 2, 2, 2),
)


# ----------------------------------------------------------------------
# The stack
# ----------------------------------------------------------------------


class MonolithicTcpStack(TcpService):
    """TCP living in one trusted place (kernel or server).

    Its PCBs are leases in a :class:`~repro.registry.core.RegistryCore`,
    the table the registry keeps for the library: one port namespace,
    one ISS source and one input routing rule for every organization.
    A connection's lease holds its runner, a listener's its backlog.
    The stack gives a lease back without a linger: its machine has
    already served TIME-WAIT when it reaches CLOSED.
    """

    def __init__(
        self,
        host: Host,
        profile: PathProfile,
        config: Optional[TcpConfig] = None,
    ) -> None:
        super().__init__(host)
        self.profile = profile
        self.config = config or TcpConfig()
        self.kernel = host.kernel
        self.sim = host.sim
        self.core = RegistryCore(msl=self.config.msl)
        host.tcp_kernel_handler = self._tcp_rx

    # ------------------------------------------------------------------
    # Service API
    # ------------------------------------------------------------------

    def listen(self, port: int) -> Generator:
        # No thread works on a PCB: every lease's worker is None.
        lease = self.core.open(self.profile, None, self.sim.now, port, backlog=Store(self.sim))
        cost = self.kernel.costs.socket_op
        if cost:
            yield self.kernel.cpu.charge(cost)
        return MonoListener(self, lease)

    def connect(self, remote_ip: int, remote_port: int, local_port: int = 0) -> Generator:
        costs = self.kernel.costs
        lease = self.core.open(self.profile, None, self.sim.now, local_port, remote_ip, remote_port)
        # Crossings to reach the stack with the request.
        cost = self.profile.setup_overhead + costs.socket_op
        if cost:
            yield self.kernel.cpu.charge(cost)
        try:
            link_dst = yield from self.host.resolve_link(remote_ip)
        except LookupError:  # No route or no ARP answer: the port goes back.
            self.core.release(lease, self.sim.now)
            raise
        connection = MonoConnection(self, lease, link_dst)
        yield from connection.runner.start(active=True)
        ok = yield from connection.runner.wait_connected()
        if not ok:
            self.core.release(lease, self.sim.now)
            reason = connection.runner.closed_reason
            raise ConnectionError(f"connect failed: {reason}")
        return connection

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _tcp_rx(self, payload: bytes, src_ip: int, link_info: LinkInfo) -> Generator:
        """Kernel TCP input: checksum, PCB lookup, machine dispatch."""
        costs = self.kernel.costs
        self.stats["rx_segments"] += 1
        if self.profile.ipc_counts[2]:
            self.kernel.counters["ipc_messages"] += self.profile.ipc_counts[2]
        cost = costs.checksum_cost(len(payload))
        if cost:
            yield self.kernel.cpu.charge(cost)
        try:
            segment = decode_segment(payload, src_ip, self.host.ip)
        except (ChecksumError, HeaderError):
            self.stats["rx_bad_checksum"] += 1
            return
        tcp_cost = costs.tcp_input if segment.payload else costs.tcp_input_ack
        cost = (
            self.profile.recv_dispatch(costs, len(payload))
            + (costs.tcp_pcb_lookup if self.profile.pcb_lookup else 0.0)
            + tcp_cost
        )
        if cost:
            yield self.kernel.cpu.charge(cost)
        route, lease = self.core.route(segment, src_ip)
        if route == "handshake":  # A PCB's runner, in any state.
            yield from lease.runner.feed_segment(segment)
        elif route == "passive":
            yield from self._passive_open(lease, segment, src_ip, link_info)
        else:
            self.stats["rx_no_match"] += 1
            yield from self._respond_rst(segment, src_ip)

    def _passive_open(
        self,
        listener: Lease,
        syn: Segment,
        src_ip: int,
        link_info: LinkInfo,
    ) -> Generator:
        lease = self.core.open(
            self.profile, None, self.sim.now, syn.dport, src_ip, syn.sport, holds_port=False
        )
        connection = MonoConnection(self, lease, link_info.src)
        yield from connection.runner.start(active=False)
        yield from connection.runner.feed_segment(syn)
        # Hand the connection to accept() once established.
        self.sim.process(
            self._complete_accept(listener, connection),
            name=f"{self.host.name}-accept",
        )

    def _complete_accept(self, listener: Lease, connection: "MonoConnection") -> Generator:
        ok = yield from connection.runner.wait_connected()
        if ok and not listener.released:
            listener.backlog.put(connection)
        elif ok:
            # Established on a listener closed meanwhile: nobody will
            # accept it, so the peer is reset rather than left hanging.
            yield from connection.abort()
        else:
            self.core.release(connection.lease, self.sim.now)

    def _respond_rst(self, segment: Segment, src_ip: int) -> Generator:
        """RFC 793: segments for nonexistent connections draw a RST."""
        rst = reset_for(segment, segment.dport, segment.sport)
        if rst is not None:
            yield from self._transmit(rst, src_ip, None)

    def _transmit(self, segment: Segment, remote_ip: int, link_dst: object, lead=0.0) -> Generator:
        if lead:  # The emitting step's timer work.
            yield self.kernel.cpu.charge(lead)
        costs = self.kernel.costs
        if self.profile.ipc_counts[1]:
            self.kernel.counters["ipc_messages"] += self.profile.ipc_counts[1]
        payload = encode_segment(segment, self.host.ip, remote_ip)
        cost = (
            costs.tcp_output
            + costs.checksum_cost(len(payload))
            + self.profile.send_device(costs, len(payload))
        )
        if cost:
            yield self.kernel.cpu.charge(cost)
        yield from self.host.ip_send(remote_ip, PROTO_TCP, payload, link_dst)


class MonoConnection(TcpConnection):
    """A connection whose machine runs inside the monolithic stack."""

    def __init__(self, stack: MonolithicTcpStack, lease: Lease, link_dst: object) -> None:
        self.stack = stack
        self.lease = lease
        self.local_port = lease.local_port
        self.remote_ip = lease.remote_ip
        self.remote_port = lease.remote_port
        self.link_dst = link_dst
        machine = TcpMachine(
            lease.local_port, lease.remote_port, config=stack.config, iss=stack.core.iss()
        )
        self.runner = lease.runner = MachineRunner(
            stack.kernel,
            machine,
            emit_fn=self._emit,
            name=f"{stack.host.name}:{lease.local_port}",
        )

    def _emit(self, segment: Segment, lead_cost: float, retransmit: bool) -> Generator:
        return self.stack._transmit(segment, self.remote_ip, self.link_dst, lead_cost)

    @property
    def _costs(self):
        return self.stack.kernel.costs

    def send(self, data: bytes) -> Generator:
        profile = self.stack.profile
        counters = self.stack.kernel.counters
        if profile.ipc_counts[0]:
            counters["ipc_messages"] += profile.ipc_counts[0]
        else:
            counters["traps"] += 1
        return self.runner.app_send(data, profile.send_entry(self._costs, len(data)))

    def _recv_exit(self, nbytes: int, blocked: bool) -> float:
        profile = self.stack.profile
        counters = self.stack.kernel.counters
        if profile.ipc_counts[3]:
            counters["ipc_messages"] += profile.ipc_counts[3]
        else:
            counters["traps"] += 1
        cost = profile.recv_exit(self._costs, nbytes)
        if blocked:
            # The reader slept; waking it costs a context switch.
            cost += self._costs.context_switch
        return cost

    def close(self) -> Generator:
        """Orderly release.  Returns once the close is initiated (BSD
        semantics: close() does not wait out TIME-WAIT); the connection
        is reaped in the background when it reaches CLOSED."""
        cost = self._costs.syscall_trap + self._costs.socket_op
        if cost:
            yield self.stack.kernel.cpu.charge(cost)
        yield from self.runner.app_close()
        self.stack.sim.process(self._finalize(), name="close-reap")

    def _finalize(self) -> Generator:
        yield from self.runner.wait_closed()
        self.stack.core.release(self.lease, self.stack.sim.now)

    def abort(self) -> Generator:
        yield from self.runner.app_abort()
        self.stack.core.release(self.lease, self.stack.sim.now)


class MonoListener(TcpListener):
    def __init__(self, stack: MonolithicTcpStack, lease: Lease) -> None:
        self.stack = stack
        self.lease = lease
        self.port = lease.local_port

    @property
    def closed(self) -> bool:
        return self.lease.released

    def accept(self) -> Generator:
        if self.closed:
            raise ConnectionError(f"listener on port {self.port} closed")
        connection = yield self.lease.backlog.get()
        return connection

    def close(self) -> None:
        backlog = self.lease.backlog
        while backlog.items:  # Established, never accepted: reset.
            self.stack.sim.process(backlog.items.popleft().abort())
        self.stack.core.release(self.lease, self.stack.sim.now)
        backlog.fail_getters(ConnectionError(f"listener on port {self.port} closed"))
