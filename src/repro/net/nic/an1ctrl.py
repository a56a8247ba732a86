"""The DEC SRC AN1 host-network interface with BQI hardware demux.

The paper (§2.2, §3.3): the controller keeps a table indexed by the
*buffer queue index* (BQI) carried in the link header.  Each entry names
a ring of pinned host buffers; an arriving packet is DMAed directly into
the next buffer of the ring its BQI selects — hardware packet
demultiplexing to the final destination process, with "strict access
control to the index ... maintained through memory protection".

BQI zero is the default and refers to protected kernel memory.  Rings
for non-zero BQIs are installed only by the (privileged) network I/O
module on the registry server's instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Generator, Optional

from ...counters import Counters
from ...mach.kernel import Kernel
from ...obs import spans as _spans
from ..headers import An1Header, HeaderError
from ..link import An1Link, Transmitter
from .base import Nic

#: AN1 broadcast station address.
AN1_BROADCAST = 0xFFFF


class BqiTableFull(Exception):
    """Every index the link header can carry names a live ring."""


@dataclass(eq=False)  # identity semantics: rings are charged/attributed by object
class BufferRing:
    """One BQI table entry: a ring of receive buffers in host memory.

    ``available`` counts free buffers; the owner replenishes by handing
    consumed buffers back (paper: "When the library is done with the
    buffer it hands it back to the network module which adds it to the
    BQI ring").
    """

    bqi: int
    capacity: int
    available: int = 0
    #: Identifies the owning channel (opaque to the controller).
    owner: Any = None
    #: Tenant attribution (a tenant_id string), stamped by the network
    #: I/O module when the ring is charged against a tenant's BQI quota.
    tenant_id: Any = None
    stats: Counters = field(default_factory=Counters)

    def __post_init__(self) -> None:
        if self.available == 0:
            self.available = self.capacity

    def take(self) -> bool:
        """Consume one buffer for an incoming packet, if any is free."""
        if self.available == 0:
            self.stats["dropped"] += 1
            return False
        self.available -= 1
        self.stats["delivered"] += 1
        return True

    def replenish(self, n: int = 1) -> None:
        """Return ``n`` buffers to the ring."""
        self.available = min(self.capacity, self.available + n)


class An1Nic(Nic):
    """DMA-capable AN1 controller with a BQI ring table."""

    #: DMA engine latency per packet (bus arbitration + transfer start).
    DMA_LATENCY = 5e-6
    #: Transmit descriptors the driver may have outstanding.
    TX_DESCRIPTORS = 32

    def __init__(
        self,
        kernel: Kernel,
        link: An1Link,
        station: int,
        name: str = "an1",
        driver_mtu_data: int = 1500,
    ) -> None:
        """``driver_mtu_data`` defaults to the paper's artifact: the
        driver encapsulates into Ethernet-sized datagrams even though the
        hardware takes 64 KB frames.  The ablation bench raises it."""
        super().__init__(kernel, link, name)
        if not 0 <= station < AN1_BROADCAST:
            raise ValueError(f"bad station address {station}")
        self._driver_mtu_data = driver_mtu_data
        self.station = station
        # The controller fetches each frame by DMA, then sends it.
        self._tx = Transmitter(
            link, self, capacity=self.TX_DESCRIPTORS,
            fetch_delay=self.DMA_LATENCY,
        )
        #: The hardware BQI table.  Entry 0 (kernel default) is installed
        #: by the network I/O module at boot.
        self.bqi_table: dict[int, BufferRing] = {}
        self._next_bqi = 1

    @property
    def mtu_data(self) -> int:
        return min(
            self._driver_mtu_data, self.link.max_frame - An1Header.LENGTH
        )

    def accepts(self, dst: Any) -> bool:
        return dst == self.station or dst == AN1_BROADCAST

    # ------------------------------------------------------------------
    # BQI table management (privileged; called via the netio module)
    # ------------------------------------------------------------------

    def allocate_bqi(self, capacity: int, owner: Any = None) -> BufferRing:
        """Install a fresh ring and return it (its index is ring.bqi).

        Indices go round 1…``An1Header.MAX_BQI`` — the link header field
        is 16 bits — skipping those still live, so a released index is
        reused only after every other one has had its turn.
        """
        table = self.bqi_table
        bqi = start = self._next_bqi
        while bqi in table:
            bqi = bqi % An1Header.MAX_BQI + 1
            if bqi == start:
                raise BqiTableFull(
                    f"{self.name}: all {An1Header.MAX_BQI} BQIs are live"
                )
        self._next_bqi = bqi % An1Header.MAX_BQI + 1
        ring = BufferRing(bqi=bqi, capacity=capacity, owner=owner)
        self.bqi_table[bqi] = ring
        return ring

    def install_default_ring(self, capacity: int = 64) -> BufferRing:
        """BQI 0: the protected kernel ring."""
        ring = BufferRing(bqi=0, capacity=capacity, owner="kernel")
        self.bqi_table[0] = ring
        return ring

    def release_bqi(self, bqi: int) -> None:
        if bqi == 0:
            raise ValueError("cannot release the kernel's BQI 0")
        self.bqi_table.pop(bqi, None)

    # ------------------------------------------------------------------
    # Transmit: descriptor write, then the controller DMAs and sends.
    # ------------------------------------------------------------------

    def driver_transmit(self, frame: bytes) -> Generator:
        if len(frame) > self.mtu_data + An1Header.LENGTH:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds driver MTU "
                f"{self.mtu_data}"
            )
        cost = self.kernel.costs.an1_dma_setup
        rec = _spans.RECORDER
        if rec is not None:
            rec.touch(frame, "nic.tx", self.sim.now, self.name, cost=cost)
        if cost:
            yield self.kernel.cpu.charge(cost)
        descriptors_full = self._tx.submit(frame)
        if descriptors_full is not None:
            yield descriptors_full
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += len(frame)

    # ------------------------------------------------------------------
    # Receive: hardware BQI demux straight into a host ring.
    # ------------------------------------------------------------------

    def wire_deliver(self, frame: bytes) -> None:
        try:
            header = An1Header.unpack(frame)
        except HeaderError:
            self.stats["rx_ignored"] += 1
            return
        ring = self.bqi_table.get(header.bqi)
        if ring is None:
            # Unknown BQI: hardware falls back to the kernel's ring.
            ring = self.bqi_table.get(0)
        rec = _spans.RECORDER
        if ring is None or not ring.take():
            self.stats["rx_dropped_no_buffer"] += 1
            if rec is not None:
                rec.touch(frame, "nic.drop", self.sim.now, self.name,
                          detail="no ring buffer")
            return
        if rec is not None:
            rec.touch(frame, "nic.rx", self.sim.now, self.name,
                      detail=f"bqi={ring.bqi}")
        # DMA into the ring, then the interrupt.  Frames are independent
        # on this controller, so each carries its own state along.
        self.sim.call_later(self.DMA_LATENCY, self._rx_arrived, (frame, ring))

    def _rx_arrived(self, arrival: tuple[bytes, BufferRing]) -> None:
        stage = partial(self._rx_dispatch, *arrival)
        cost = self.kernel.costs.interrupt
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _rx_dispatch(self, frame: bytes, ring: BufferRing, _event: object) -> None:
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame)
        handler = self.rx_handler
        if handler is None:
            self.stats["rx_ignored"] += 1
        else:
            handler(frame, ring, _consumed)


def _consumed() -> None:
    """``done`` of a controller that holds nothing back meanwhile."""
