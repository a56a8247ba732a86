"""The DEC SRC AN1 host-network interface with BQI hardware demux.

The paper (§2.2, §3.3): the controller keeps a table indexed by the
*buffer queue index* (BQI) carried in the link header.  Each entry names
a ring of pinned host buffers, a channel's :class:`SharedRegion`; an
arriving packet takes a buffer of the region its BQI selects and is
DMAed straight into it (dropped when the region is full) — hardware
packet demultiplexing to the final destination process, with "strict
access control to the index ... maintained through memory protection".

BQI zero is the default and refers to protected kernel memory.  Regions
for non-zero BQIs are installed only by the (privileged) network I/O
module on the registry server's instruction.
"""

from __future__ import annotations

from functools import partial
from typing import Generator

from ...mach.kernel import Kernel
from ...mach.vm import SharedRegion
from ... import obs as _obs
from ..headers import An1Header
from ..link import An1Link, Transmitter
from .base import Nic

#: AN1 broadcast station address.
AN1_BROADCAST = 0xFFFF
_BROADCAST_OCTETS = AN1_BROADCAST.to_bytes(2, "big")


class BqiTableFull(Exception):
    """Every index the link header can carry names a live ring."""


class An1Nic(Nic):
    """DMA-capable AN1 controller with a BQI table of shared regions."""

    #: DMA engine latency per packet (bus arbitration + transfer start).
    DMA_LATENCY = 5e-6
    #: Transmit descriptors the driver may have outstanding.
    TX_DESCRIPTORS = 32
    #: Receive buffers in the kernel's region, BQI 0.
    KERNEL_BUFFERS = 64

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
        #: ``station`` as it stands in a frame's first 16-bit word.
        self._station_octets = station.to_bytes(2, "big")
        # The controller fetches each frame by DMA, then sends it.
        self._tx = Transmitter(
            link, self, capacity=self.TX_DESCRIPTORS,
            fetch_delay=self.DMA_LATENCY,
        )
        #: The hardware BQI table.  Entry 0 is the kernel's region.
        self.bqi_table: dict[int, SharedRegion] = {
            0: SharedRegion(self.KERNEL_BUFFERS, "kernel")
        }
        self._next_bqi = 1

    @property
    def mtu_data(self) -> int:
        return min(
            self._driver_mtu_data, self.link.max_frame - An1Header.LENGTH
        )

    def accepts(self, frame: bytes) -> bool:
        # The destination station, the header's first 16-bit word.  A
        # runt shorter than that matches no station and is dropped here.
        dst = frame[:2]
        return dst == self._station_octets or dst == _BROADCAST_OCTETS

    # ------------------------------------------------------------------
    # BQI table management (privileged; called via the netio module)
    # ------------------------------------------------------------------

    def allocate_bqi(self, region: SharedRegion) -> SharedRegion:
        """Install ``region`` under a fresh index and return it (its
        index is then ``region.bqi``).

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
        region.bqi = bqi
        table[bqi] = region
        return region

    def release_bqi(self, bqi: int) -> None:
        if bqi == 0:
            raise ValueError("cannot release the kernel's BQI 0")
        self.bqi_table.pop(bqi, None)

    # ------------------------------------------------------------------
    # Transmit: descriptor write, then the controller DMAs and sends.
    # ------------------------------------------------------------------

    def driver_transmit(self, frame: bytes) -> Generator:
        length = len(frame)
        if length > self.mtu_data + An1Header.LENGTH:
            raise ValueError(
                f"frame of {length} bytes exceeds driver MTU "
                f"{self.mtu_data}"
            )
        cost = self.kernel.costs.an1_dma_setup
        obs = _obs.SESSION
        if obs is not None:
            obs.spans.touch(frame, "nic.tx", self.sim.now, self.name, cost=cost)
        if cost:
            yield self.kernel.cpu.charge(cost)
        descriptors_full = self._tx.submit(frame)
        if descriptors_full is not None:
            yield descriptors_full
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += length

    # ------------------------------------------------------------------
    # Receive: hardware BQI demux straight into a host region.
    # ------------------------------------------------------------------

    def wire_deliver(self, frame: bytes) -> None:
        # The hardware demuxes on one header field, the BQI at bytes 6-7;
        # the network I/O module decodes the header once, at the ring.
        if len(frame) < An1Header.LENGTH:
            self.stats["rx_runt"] += 1
            return
        # An unknown BQI falls back to the kernel's region.
        region = self.bqi_table.get(frame[6] << 8 | frame[7]) or self.bqi_table[0]
        obs = _obs.SESSION
        if not region.available:
            self.stats["rx_dropped_no_buffer"] += 1
            if obs is not None:
                obs.spans.touch(frame, "nic.drop", self.sim.now, self.name,
                                detail="no ring buffer")
            return
        region.available -= 1
        region.stats["delivered"] += 1
        if obs is not None:
            obs.spans.touch(frame, "nic.rx", self.sim.now, self.name,
                            detail=f"bqi={region.bqi}")
        # DMA into the region, then the interrupt.  Frames are
        # independent on this controller, so each carries its own state.
        self.sim.call_later(self.DMA_LATENCY, self._rx_arrived, (frame, region))

    def _rx_arrived(self, arrival: tuple[bytes, SharedRegion]) -> None:
        stage = partial(self._rx_dispatch, *arrival)
        cost = self.kernel.costs.interrupt
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _rx_dispatch(self, frame: bytes, region: SharedRegion, _event: object) -> None:
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame)
        handler = self.rx_handler
        if handler is None:
            self.stats["rx_ignored"] += 1
            region.replenish()  # Nobody takes the frame: its buffer goes back.
        else:
            handler(frame, region, _consumed)


def _consumed() -> None:
    """``done`` of a controller that holds nothing back meanwhile."""
