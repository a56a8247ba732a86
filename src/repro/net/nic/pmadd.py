"""The DEC PMADD-AA TurboChannel Ethernet interface (LANCE-based).

The paper (§3.3): "This interface does not have DMA capabilities to and
from the host memory.  Instead, there are special packet buffers on
board the controller that serve as a staging area for data.  The host
transfers data between these buffers and host memory using programmed
I/O."

So every byte crossing this NIC costs host CPU (the PIO rate), on both
transmit and receive — the dominant per-packet cost on the Ethernet
path, and the reason AN1 (DMA) changes the balance in Tables 2/3.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...mach.kernel import Kernel
from ... import obs as _obs
from ..buf import as_wire_bytes
from ..headers import BROADCAST_MAC
from ..link import EthernetLink, Transmitter
from .base import Nic


class PmaddNic(Nic):
    """Programmed-I/O Ethernet controller with on-board staging buffers."""

    #: Staging capacity in each direction: the board's slots plus the
    #: driver's receive descriptor ring in host memory (LANCE drivers
    #: typically configured 16-32 ring entries).
    BOARD_BUFFERS = 32

    def __init__(
        self,
        kernel: Kernel,
        link: EthernetLink,
        mac: bytes,
        name: str = "pmadd",
    ) -> None:
        super().__init__(kernel, link, name)
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self.mac = mac
        self._tx = Transmitter(link, self, capacity=self.BOARD_BUFFERS)
        self._rx_buffers: list[bytes] = []
        self._rx_interrupt_pending = False
        #: The frame being copied to the host (one at a time).
        self._rx_frame: Optional[bytes] = None

    @property
    def mtu_data(self) -> int:
        return EthernetLink.MTU_DATA

    def accepts(self, frame: bytes) -> bool:
        # The destination MAC, the frame's first six octets.
        dst = frame[:6]
        return dst == self.mac or dst == BROADCAST_MAC

    # ------------------------------------------------------------------
    # Transmit: PIO copy to board, then board puts it on the wire.
    # ------------------------------------------------------------------

    def driver_transmit(self, frame: bytes) -> Generator:
        # The host copies the frame onto the board word by word (§3.3):
        # that copy, charged below, is where a chain becomes octets, so
        # staging, the transmitter and the wire all hold flat bytes.
        if type(frame) is not bytes:
            frame = as_wire_bytes(frame)
        length = len(frame)
        costs = self.kernel.costs
        # ``pio_cost(length)`` spelled out (same float), here and at the
        # receive copy: both run once per frame.
        cost = costs.pmadd_pio_per_byte * length + costs.pmadd_per_packet
        obs = _obs.SESSION
        if obs is not None:
            obs.spans.touch(frame, "nic.tx", self.sim.now, self.name, cost=cost)
        if cost:
            yield self.kernel.cpu.charge(cost)
        # Blocks when all staging buffers are full: natural backpressure.
        staging_full = self._tx.submit(frame)
        if staging_full is not None:
            yield staging_full
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += length

    # ------------------------------------------------------------------
    # Receive: stage on board, interrupt, PIO copy to host, hand off —
    # interrupt context, so callbacks chained on the CPU charges.
    # ------------------------------------------------------------------

    def wire_deliver(self, frame: bytes) -> None:
        obs = _obs.SESSION
        if len(self._rx_buffers) >= self.BOARD_BUFFERS:
            self.stats["rx_dropped_no_buffer"] += 1
            if obs is not None:
                obs.spans.touch(frame, "nic.drop", self.sim.now, self.name,
                                detail="no rx buffer")
            return
        if obs is not None:
            obs.spans.touch(frame, "nic.rx", self.sim.now, self.name)
        self._rx_buffers.append(frame)
        if not self._rx_interrupt_pending:
            self._rx_interrupt_pending = True
            self._rx_take()

    def _rx_take(self) -> None:
        """Raise the interrupt for the next staged frame, or stand down.
        Also the handler's ``done``: a frame is taken only when the one
        before it has been consumed."""
        if not self._rx_buffers:
            self._rx_interrupt_pending = False
            return
        cost = self.kernel.costs.interrupt
        if cost:
            self.kernel.cpu.charge(cost, self._rx_pio)
        else:
            self._rx_pio(None)

    def _rx_pio(self, _event: object) -> None:
        # Popped only once the CPU took the interrupt: frames staged
        # while it was busy drain in arrival order, one after another.
        self._rx_frame = frame = self._rx_buffers.pop(0)
        cost = self.kernel.costs.pmadd_pio_per_byte * len(frame)
        if cost:
            self.kernel.cpu.charge(cost, self._rx_dispatch)
        else:
            self._rx_dispatch(None)

    def _rx_dispatch(self, _event: object) -> None:
        frame, self._rx_frame = self._rx_frame, None
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += len(frame)
        handler = self.rx_handler
        if handler is None:
            self.stats["rx_ignored"] += 1
            self._rx_take()
        else:
            handler(frame, None, self._rx_take)
