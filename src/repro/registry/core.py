"""The registry's lease rules, sans-io (paper §3.4).

The registry owns end-points: it allocates ports, runs the handshake,
inherits connections at exit, keeps the 2MSL delay and resets the peers
of aborted applications.  :class:`RegistryCore` is that ownership as
bookkeeping, told the time: it never touches the simulator, the network
I/O module or Mach, and :class:`~repro.registry.server.RegistryServer`
applies what it hands back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from ..protocols.tcp import Segment, State, TcpMachine
from ..protocols.tcp.seq import MOD

EPHEMERAL_START = 1024
#: A machine in these has already said goodbye: its peer is owed no RST.
_QUIET = (State.CLOSED, State.TIME_WAIT)


class PortInUse(OSError):
    """The requested port is bound or still lingering in TIME-WAIT."""


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

    @classmethod
    def take_over(cls, runner, channel, local_port, remote_ip, remote_port, link_dst):
        """The grant of ``runner``'s connection (the registry's, or a
        hand-off's): its buffered data and armed timers leave it here."""
        return cls(
            runner.machine, channel, local_port, remote_ip, remote_port, link_dst,
            bytes(runner.rx_buffer), runner.stop_timers(),
        )


@dataclass(eq=False)
class Lease:
    """What one registry operation has acquired so far, and for whom:
    every acquisition after the first is a field set here.  A listener
    is keyed ``(port, 0, 0)`` and has a ``backlog``; a UDP binding is
    keyed the same way and holds a channel but no runner."""

    owner: Any
    #: The thread working on the lease; its owner's exit interrupts it.
    worker: Any
    local_port: int
    remote_ip: int = 0
    remote_port: int = 0
    #: False for a passive open: the port is its listener's.
    holds_port: bool = True
    #: The registry allocated ``local_port``: the caller named none.
    minted: bool = False
    link_dst: object = None
    #: The peer registry's ring, read off the link header of a segment
    #: that reached this lease (AN1 BQI exchange).
    peer_bqi: int = 0
    ring: object = None
    #: The handshake's machine and its timers, until the grant is built.
    runner: Any = None
    channel: Any = None
    #: What ``accept()`` hands over: the library's grant once the
    #: channel exists, or a kernel stack's connection from its start.
    grant: Any = None
    #: A listener's established, not yet accepted leases (a ``deque``),
    #: and the accepts waiting for one (the shell's requests or events).
    backlog: Any = None
    parked: Any = None
    released: bool = False


class HandBack(NamedTuple):
    """One lease going back.  The shell also destroys its channel (or
    releases its ring), removes a listener's flow and answers its
    parked accepts."""

    lease: Lease
    #: The handshake's runner still holds its timers: no grant took them.
    stop_timers: bool
    #: The sequence number of the RST the peer is owed, or None.
    rst_seq: Optional[int]
    #: When the lease's port is free again, if it lingers.
    linger_until: Optional[float]


class RegistryCore:
    """One host's TCP registry as rules: given events and the time, it
    answers with leases, ports and hand-backs."""

    def __init__(self, msl: float = 30.0) -> None:
        self.msl = msl
        #: Everything handed out and not yet given back, keyed by
        #: (local_port, remote_ip, remote_port).
        self.leases: dict[tuple[int, int, int], Lease] = {}
        #: The initial send sequence number of the next handshake.
        self.next_iss = 1
        #: port -> (owner name, linger deadline, or None while bound).
        self._ports: dict[int, tuple[str, Optional[float]]] = {}
        #: (deadline, port) in release order: every port lingers 2·MSL and
        #: time only advances, so expiry pops the head, scanning nothing.
        self._lingering: deque[tuple[float, int]] = deque()
        self._next_ephemeral = EPHEMERAL_START
        #: worker -> the lease it is working on.
        self._working: dict[Any, Lease] = {}

    def held(self, now: float) -> dict[int, Optional[float]]:
        """Every port held at ``now``: None while bound, else the
        instant its linger ends."""
        self._expire(now)
        return {port: until for port, (_, until) in self._ports.items()}

    def reserve(self, port: int, owner: str, now: float) -> int:
        """Claim a specific port; raises :class:`PortInUse` if taken."""
        if not 0 < port < 0x10000:
            raise ValueError(f"bad port {port}")
        self._expire(now)
        held = self._ports.get(port)
        if held is not None:
            state = "bound" if held[1] is None else "lingering"
            raise PortInUse(f"port {port} is {state} (owner {held[0]})")
        self._ports[port] = (owner, None)
        return port

    def allocate(self, owner: str, now: float) -> int:
        """Claim the next free ephemeral port."""
        self._expire(now)
        for _ in range(0x10000 - EPHEMERAL_START):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 0xFFFF else EPHEMERAL_START
            if port not in self._ports:
                self._ports[port] = (owner, None)
                return port
        raise PortInUse("ephemeral port space exhausted")

    def free(self, port: int, now: float, linger: bool = True) -> Optional[float]:
        """Free ``port``, or hold it 2·MSL first and say until when."""
        held = self._ports.get(port)
        if held is None:
            return None
        if not linger:
            del self._ports[port]
            return None
        until = now + 2 * self.msl
        self._ports[port] = (held[0], until)
        self._lingering.append((until, port))
        return until

    def _expire(self, now: float) -> None:
        lingering, ports = self._lingering, self._ports
        while lingering and lingering[0][0] <= now:
            until, port = lingering.popleft()
            held = ports.get(port)
            if held is not None and held[1] == until:  # Not freed or re-taken since.
                del ports[port]

    def open(self, owner, worker, now: float, local_port: int, remote_ip: int = 0,
             remote_port: int = 0, holds_port: bool = True, **fields) -> Lease:
        """An operation's first allocation, for ``worker``: the lease and,
        unless it is a passive open's, ``local_port`` or an ephemeral one."""
        if holds_port:
            if local_port:
                self.reserve(local_port, owner.name, now)
            else:
                local_port = self.allocate(owner.name, now)
                fields["minted"] = True
            if (local_port, remote_ip, remote_port) in self.leases:
                # A passive open's connection, on a port its listener gave up.
                self.free(local_port, now, linger=False)
                raise PortInUse(f"port {local_port} to that peer is in use")
        lease = Lease(owner, worker, local_port, remote_ip, remote_port, holds_port, **fields)
        self.leases[local_port, remote_ip, remote_port] = lease
        self._working[worker] = lease
        return lease

    def assign(self, lease: Lease, worker) -> None:
        """``worker`` carries on the operation on ``lease``."""
        if self._working.get(lease.worker) is lease:
            del self._working[lease.worker]
        lease.worker = worker
        self._working[worker] = lease

    def listener(self, port: int) -> Optional[Lease]:
        lease = self.leases.get((port, 0, 0))
        return lease if lease is not None and lease.backlog is not None else None

    def release(self, lease: Lease, now: float, linger=False, reset=False) -> list[HandBack]:
        """Give back everything ``lease`` holds, at whatever stage, once.
        ``linger`` holds a connection's port 2·MSL; ``reset`` owes the
        peer a RST unless the machine already said goodbye.  A listener's
        backlog goes with it, reset."""
        if lease.released:
            return []
        lease.released = True
        del self.leases[lease.local_port, lease.remote_ip, lease.remote_port]
        if self._working.get(lease.worker) is lease:
            del self._working[lease.worker]
        runner = lease.runner
        rst_seq = until = None
        if runner is not None and reset and runner.machine.state not in _QUIET:
            rst_seq = runner.machine.tcb.snd_nxt % MOD
        if lease.holds_port:
            until = self.free(lease.local_port, now, linger and runner is not None)
        records = [HandBack(lease, runner is not None and lease.grant is None, rst_seq, until)]
        if lease.backlog is not None:
            queued = lease.backlog
            while queued:
                records += self.release(queued.popleft(), now, reset=True)
        return records

    def exited(self, lease: Lease, task, now: float) -> list[HandBack]:
        """``task``, the owner, has exited.  A lease whose channel was
        handed to another application (paper §3.2) follows it: ``owner``
        becomes the channel's.  Otherwise it is inherited: reset, linger."""
        if lease.released:
            return []
        holder = lease.channel.owner if lease.channel is not None else task
        if holder is not task:
            lease.owner = holder
            return []
        return self.release(lease, now, linger=True, reset=True)

    def failed(self, worker, now: float) -> list[HandBack]:
        """``worker``'s operation failed: its lease goes back, reset."""
        lease = self._working.get(worker)
        return [] if lease is None else self.release(lease, now, reset=True)

    def iss(self) -> int:
        iss = self.next_iss
        self.next_iss = (iss + 64_000) % (1 << 32)
        return iss

    def route(self, segment: Segment, src_ip: int, adv_bqi: int = 0):
        """Where a kernel-path segment goes: ``("handshake", lease)`` (which
        learns the peer's advertised ring), ``("passive", listener)`` for a
        SYN to a listening port, else ``("reset", None)``."""
        lease = self.leases.get((segment.dport, src_ip, segment.sport))
        if lease is None:
            listener = self.leases.get((segment.dport, 0, 0))
            if listener is not None and listener.backlog is not None and (
                segment.syn and not segment.has_ack
            ):
                return "passive", listener
        elif lease.runner is not None and lease.channel is None:
            if adv_bqi:
                lease.peer_bqi = adv_bqi
            return "handshake", lease
        return "reset", None
