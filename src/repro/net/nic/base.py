"""Host-network interface base class.

A NIC sits between a host kernel (CPU costs, interrupt handlers) and a
link (wire time).  The network I/O module installs ``rx_handler``; the
driver side calls :meth:`driver_transmit` from within a host process,
or :meth:`transmit` from interrupt context.
"""

from __future__ import annotations

from ...counters import Counters
import abc
from functools import partial
from typing import Any, Callable, Generator, Optional

from ...mach.kernel import Kernel
from ..link import Link

#: Installed by the network I/O module: ``handler(frame, context, done)``
#: runs in interrupt context — a plain call that never blocks.
#: ``context`` is None for NICs without hardware demux, or the ring the
#: hardware selected.  The handler calls ``done()`` exactly once when it
#: has consumed the frame, before it returns or from a later completion.
RxHandler = Callable[[bytes, Any, Callable[[], None]], None]


class Nic(abc.ABC):
    """One host-network interface attached to one link; a subclass
    sends through its :class:`~repro.net.link.Transmitter`, ``_tx``."""

    def __init__(self, kernel: Kernel, link: Link, name: str) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.link = link
        self.name = name
        self.rx_handler: Optional[RxHandler] = None
        self.stats = Counters()
        link.attach(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    @abc.abstractmethod
    def accepts(self, frame: bytes) -> bool:
        """Hardware address filter on the flat ``frame`` (free: done by
        the controller, which reads its own address field)."""

    @abc.abstractmethod
    def driver_transmit(self, frame: bytes) -> Generator:
        """Send ``frame``; charges the driver-side device costs."""

    @abc.abstractmethod
    def transmit(self, frame: bytes, then: Callable[[], None]) -> None:
        """:meth:`driver_transmit` in interrupt context: the driver cost
        is a ``cpu.charge`` whose completion submits ``frame``, and
        ``then()`` runs once the frame is admitted (at once, or when a
        full staging or descriptor ring frees a slot)."""

    @abc.abstractmethod
    def wire_deliver(self, frame: bytes, _event: object = None) -> None:
        """Called by the link when a frame arrives at this NIC (its
        delivery event is ``_event``)."""

    def _submit(
        self, frame: bytes, length: int, then: Callable[[], None], _event: object
    ) -> None:
        """:meth:`transmit`'s second stage, once the driver cost is paid:
        hand ``frame`` (``length`` octets) to the transmitter and count
        it, then ``then()`` now or when the transmitter's slot event
        fires.  In interrupt context nothing can withdraw a frame that
        waits for a slot, so it is counted as it is handed over."""
        admitted = self._tx.submit(frame)
        stats = self.stats
        stats["tx_frames"] += 1
        stats["tx_bytes"] += length
        if admitted is None:
            then()
        else:
            admitted.callbacks.append(partial(_admitted, then))


def _admitted(then: Callable[[], None], _event: object) -> None:
    then()
