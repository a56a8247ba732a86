"""The kernel-path TCP input, written once (paper §3).

Handshakes and segments for no connection reach a host's kernel path.
The in-kernel stacks and the registry answer them with this code over
one :class:`~repro.registry.core.RegistryCore`: decode, ``core.route``,
then the handshake's runner, a passive open, or a reset.  The registry
is the kernel stack that stops at ESTABLISHED.  A subclass supplies
``_rx_costs(segment, nbytes)``, the charges before a segment is judged
(None: its checksum failed) and before TCP input; a passive open's
``_handshake`` (sets ``lease.runner``) and ``_established`` (sets
``lease.grant``, unless the handshake did); ``_send_reset``; its share
of a hand-back (``_hand_back``); ``_grant``, ``_stale`` and
``_turn_away`` for an accept parked on a listener; and ``_spawn`` for
the input's threads.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..counters import Counters
from ..host import Host
from ..net.headers import HeaderError
from ..netio.module import Done, LinkInfo
from ..protocols.tcp import ChecksumError, Segment, TcpConfig, decode_segment, reset_for
from ..sim import Interrupt
from .core import HandBack, Lease, RegistryCore

#: What refuses a passive open: a failed handshake, no ring or channel
#: within the owner's budget, or the owner's exit interrupting it.
REFUSED = (OSError, Interrupt)


class KernelPath:
    """One host's kernel-path TCP: its end-point table and its input."""

    def __init__(self, host: Host, config: Optional[TcpConfig] = None) -> None:
        self.host, self.sim, self.kernel = host, host.sim, host.kernel
        self.config = config or TcpConfig()
        self.core = RegistryCore(msl=self.config.msl)
        self.stats = Counters()  # Kernel-path counts; outlives every lease.
        host.tcp_kernel_handler = self._tcp_input

    def _tcp_input(self, payload: bytes, src_ip: int, link_info: LinkInfo, done: Done) -> None:
        """Interrupt context: the segment's input runs on a thread of its
        own, which lets go of the interface when it ends."""
        try:
            self._spawn(self._tcp_rx(payload, src_ip, link_info, done), name="tcp-rx")
        except RuntimeError:  # The registry's task has exited: nobody runs it.
            self.stats["rx_no_task"] += 1
            done()

    def _tcp_rx(self, payload: bytes, src_ip: int, link_info: LinkInfo, done: Done) -> Generator:
        try:
            try:
                segment = decode_segment(payload, src_ip, self.host.ip)
            except (ChecksumError, HeaderError):
                segment = None
            cost, input_cost = self._rx_costs(segment, len(payload))
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            if segment is None:
                self.stats["rx_bad_checksum"] += 1
            else:
                if input_cost and (turn := self.kernel.cpu.spend(input_cost)) is not None:
                    yield turn
                route, lease = self.core.route(segment, src_ip, link_info.adv_bqi)
                if route == "handshake":
                    yield from lease.runner.feed_segment(segment)
                elif route == "passive":
                    yield from self._passive_open(lease, segment, src_ip, link_info)
                else:
                    yield from self._respond_rst(segment, src_ip, link_info.src)
        except Exception:
            done()
            raise
        done()

    def _passive_open(
        self, listener: Lease, syn: Segment, src_ip: int, link_info: LinkInfo
    ) -> Generator:
        lease = self.core.open(
            listener.owner, self.sim.active_process, self.sim.now, syn.dport, src_ip, syn.sport,
            holds_port=False, link_dst=link_info.src, peer_bqi=link_info.adv_bqi,
        )
        try:
            yield from self._handshake(lease)
            yield from lease.runner.start(active=False)
            yield from lease.runner.feed_segment(syn)
        except REFUSED:  # Refused like a SYN to a closed port.
            self._give_back(self.core.release(lease, self.sim.now, reset=True))
            yield from self._respond_rst(syn, src_ip, link_info.src)
            return
        self.core.assign(lease, self._spawn(
            self._complete_passive(lease, lease.runner, listener), name=f"passive-{syn.sport}"
        ))

    def _complete_passive(self, lease: Lease, runner, listener: Lease) -> Generator:
        try:
            if not (yield from runner.wait_connected()):
                raise ConnectionError(runner.closed_reason)
            if lease.grant is None:
                yield from self._established(lease)
            if listener.released:
                raise ConnectionError("listener closed")
            parked = listener.parked
            while parked and self._stale(parked[0]):  # Its acceptor is gone.
                parked.popleft()
            if parked:  # An accept waits on the listener: grant it here.
                yield from self._grant(parked.popleft(), lease)
            else:
                listener.backlog.append(lease)
        except REFUSED:
            # Nobody left to accept it: the listening port stays its listener's.
            self._give_back(self.core.release(lease, self.sim.now, reset=True))

    def _respond_rst(self, segment: Segment, src_ip: int, link_src: object) -> Generator:
        """RFC 793: a segment for no connection draws a RST."""
        rst = reset_for(segment, segment.dport, segment.sport)
        if rst is not None:
            yield from self._send_reset(rst, src_ip, link_src)

    def _give_back(self, records: list[HandBack]) -> None:
        """Apply what the core handed back: the only code that stops a
        dead handshake's timers or answers a closed listener's parked
        accepts."""
        for lease, stop_timers, rst_seq, _ in records:
            if stop_timers:
                lease.runner.stop_timers()
            self._hand_back(lease, rst_seq)
            while lease.parked:
                closed = ConnectionError(f"listener on port {lease.local_port} closed")
                self._turn_away(lease.parked.popleft(), closed)
            # A handshake's runner refers back to its lease: break the
            # cycle, so what a released lease held goes at once.
            lease.runner = lease.channel = lease.grant = None
