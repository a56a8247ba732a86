"""A store-and-forward Ethernet switch with learning and finite queues.

The paper's testbed was "a switchless, private segment" — two hosts,
no contention beyond the shared medium.  To exercise the TCP machinery
and the demux engine under *many* contending flows, the fabric adds the
missing middle of the network: switches whose output ports serialize at
the attached link's bit rate and whose finite egress queues are where
congestion loss actually comes from.

A :class:`SwitchPort` duck-types the NIC protocol a :class:`~repro.net.link.Link`
expects (``accepts``/``wire_deliver``) but belongs to no host kernel:
switching consumes no host CPU, only wire time and queue space.  Frames
arrive fully serialized (the ingress link delivers whole frames), are
bridged by destination MAC — learned from source addresses, flooded
while unknown — and then queued on the egress port, whose transmitter
drains one frame at a time through the egress link.
"""

from __future__ import annotations

from ...counters import Counters
from typing import Callable, Optional

from ...sim import Simulator
from ..buf import as_wire_bytes
from ..headers import BROADCAST_MAC, EthernetHeader, HeaderError, mac_to_str
from ..link import Link, Transmitter
from .queues import EgressQueue, TailDropQueue


class SwitchPort:
    """One switch port: promiscuous receiver + queued transmitter."""

    def __init__(
        self,
        switch: "Switch",
        link: Link,
        index: int,
        queue: EgressQueue,
    ) -> None:
        self.switch = switch
        self.link = link
        self.index = index
        self.queue = queue
        self.name = f"{switch.name}[{index}]"
        # Label the queue for span timelines and netstat tables.
        queue.name = self.name
        link.attach(self)
        # The queue hands a frame straight to the transmitter when it is
        # idle; the transmitter pulls from the queue when a turn ends.
        queue.transmitter = Transmitter(link, self, pull=queue.pop)
        #: One dict for the port: the transmitter counts ``tx_*`` in it,
        #: ``wire_deliver`` counts ``rx_*``.
        self.stats = queue.transmitter.stats

    def __repr__(self) -> str:
        return f"<SwitchPort {self.name}>"

    @property
    def drops(self) -> int:
        """Frames this port's egress queue has discarded."""
        return self.queue.stats["dropped"]

    # The link-facing NIC protocol -------------------------------------

    def accepts(self, dst: object) -> bool:
        return True  # Promiscuous: a bridge sees every frame.

    def wire_deliver(self, frame: bytes) -> None:
        # Links deliver flat wire bytes; enforce that invariant locally
        # (idempotent for bytes) so the whole store-and-forward path —
        # ingress, egress queue, retransmission — holds one buffer by
        # reference and never copies it per hop.
        frame = as_wire_bytes(frame)
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame)
        self.switch._ingress(self, frame)


class Switch:
    """A learning Ethernet bridge with per-port egress queues."""

    #: Learned MAC entries expire after this many seconds (IEEE 802.1D
    #: uses 300 s by default).
    MAC_TTL = 300.0
    DEFAULT_QUEUE_BYTES = 48 * 1024

    def __init__(
        self,
        sim: Simulator,
        name: str = "sw",
        forward_latency: float = 5e-6,
        default_queue_bytes: int = DEFAULT_QUEUE_BYTES,
        queue_factory: Optional[Callable[[Simulator, int], EgressQueue]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_latency = forward_latency
        self.default_queue_bytes = default_queue_bytes
        self.queue_factory = queue_factory or TailDropQueue
        self.ports: list[SwitchPort] = []
        #: MAC -> (port, learned_at).
        self._macs: dict[bytes, tuple[SwitchPort, float]] = {}
        self.stats = Counters()

    def __repr__(self) -> str:
        return f"<Switch {self.name} ports={len(self.ports)}>"

    def add_port(
        self,
        link: Link,
        queue: Optional[EgressQueue] = None,
        queue_bytes: Optional[int] = None,
    ) -> SwitchPort:
        """Attach a new port to ``link`` with its own egress queue."""
        if queue is None:
            queue = self.queue_factory(
                self.sim, queue_bytes or self.default_queue_bytes
            )
        port = SwitchPort(self, link, len(self.ports), queue)
        self.ports.append(port)
        return port

    @property
    def mac_table(self) -> dict[str, int]:
        """Learned forwarding table as ``mac string -> port index``."""
        return {
            mac_to_str(mac): port.index
            for mac, (port, _) in self._macs.items()
        }

    # Bridging ----------------------------------------------------------

    def _ingress(self, port: SwitchPort, frame: bytes) -> None:
        try:
            header = EthernetHeader.unpack(frame)
        except HeaderError:
            self.stats["malformed"] += 1
            return
        self.stats["frames"] += 1
        self._learn(header.src, port)
        out = self._lookup(header.dst)
        if header.dst == BROADCAST_MAC or out is None:
            self.stats["flooded"] += 1
            targets = [p for p in self.ports if p is not port]
        elif out is port:
            # Destination lives on the ingress segment: nothing to do.
            self.stats["filtered"] += 1
            return
        else:
            self.stats["forwarded"] += 1
            targets = [out]
        for target in targets:
            # Store-and-forward latency, then the egress queue.
            self.sim.call_later(self.forward_latency, target.queue.offer, frame)

    def _learn(self, src: bytes, port: SwitchPort) -> None:
        if src == BROADCAST_MAC:
            return
        if src not in self._macs:
            self.stats["learned"] += 1
        self._macs[src] = (port, self.sim.now)

    def _lookup(self, dst: bytes) -> Optional[SwitchPort]:
        entry = self._macs.get(dst)
        if entry is None:
            return None
        port, learned_at = entry
        if self.sim.now - learned_at > self.MAC_TTL:
            del self._macs[dst]
            return None
        return port
