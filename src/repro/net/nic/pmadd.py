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

from typing import Any, Generator

from ...mach.kernel import Kernel
from ...obs import spans as _spans
from ..headers import BROADCAST_MAC, EthernetHeader
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
        self._rxintr_name = f"{name}-rxintr"

    @property
    def mtu_data(self) -> int:
        return EthernetLink.MTU_DATA

    def accepts(self, dst: Any) -> bool:
        return dst == self.mac or dst == BROADCAST_MAC

    # ------------------------------------------------------------------
    # Transmit: PIO copy to board, then board puts it on the wire.
    # ------------------------------------------------------------------

    def driver_transmit(self, frame: bytes) -> Generator:
        costs = self.kernel.costs
        cost = costs.pio_cost(len(frame)) + costs.pmadd_per_packet
        rec = _spans.RECORDER
        if rec is not None:
            rec.touch(frame, "nic.tx", self.sim.now, self.name, cost=cost)
        if cost:
            yield self.kernel.cpu.charge(cost)
        # Blocks when all staging buffers are full: natural backpressure.
        staging_full = self._tx.submit(frame)
        if staging_full is not None:
            yield staging_full
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += len(frame)

    # ------------------------------------------------------------------
    # Receive: stage on board, interrupt, PIO copy to host, hand off.
    # ------------------------------------------------------------------

    def wire_deliver(self, frame: bytes) -> None:
        rec = _spans.RECORDER
        if len(self._rx_buffers) >= self.BOARD_BUFFERS:
            self.stats["rx_dropped_no_buffer"] += 1
            if rec is not None:
                rec.touch(frame, "nic.drop", self.sim.now, self.name,
                          detail="no rx buffer")
            return
        if rec is not None:
            rec.touch(frame, "nic.rx", self.sim.now, self.name)
        self._rx_buffers.append(frame)
        if not self._rx_interrupt_pending:
            self._rx_interrupt_pending = True
            self.sim.process(self._rx_interrupt(), name=self._rxintr_name)

    def _rx_interrupt(self) -> Generator:
        costs = self.kernel.costs
        cpu = self.kernel.cpu
        try:
            while self._rx_buffers:
                cost = costs.interrupt
                if cost:
                    yield cpu.charge(cost)
                # Drain every frame staged by the time we got the CPU —
                # the natural interrupt-coalescing a busy receiver sees.
                frame = self._rx_buffers.pop(0)
                cost = costs.pio_cost(len(frame))
                if cost:
                    yield cpu.charge(cost)
                self.stats["rx_frames"] += 1
                self.stats["rx_bytes"] += len(frame)
                # Dispatch straight to the handler: the _run_rx_handler
                # wrapper would add a generator frame to every resume of
                # the whole downstream receive path.
                handler = self.rx_handler
                if handler is None:
                    self.stats["rx_ignored"] += 1
                else:
                    yield from handler(frame, None)
        finally:
            # Never wedge the interrupt path: even if a handler raised,
            # the next delivery must be able to spawn a fresh handler.
            self._rx_interrupt_pending = False
