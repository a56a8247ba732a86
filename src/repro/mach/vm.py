"""The shared region: one channel's pinned receive buffers.

The network I/O module and the protocol library share a pinned region
that packets move through without copies — the paper's central buffering
mechanism (§3.3).  A region holds a fixed number of receive buffers; on
AN1 it *is* the ring a BQI names.  Placing a frame takes a buffer
(``available`` goes down by one: the AN1 controller takes at DMA, the
network I/O module otherwise), a full region drops the frame and the
taker counts it, and the library gives one back per frame it consumes.
Wiring charges its (setup-time-only) cost here; the network I/O module
charges the mapping when it builds a channel.
"""

from __future__ import annotations

from typing import Any, Generator

from ..counters import Counters
from .kernel import Kernel

PAGE_SIZE = 4096
#: Bytes in one receive buffer.
BUFFER_BYTES = 2048


class SharedRegion:
    """A pinned region of ``capacity`` receive buffers, ``available``
    of them free.  ``bqi`` is its index in the AN1 controller's table
    (0 when no table holds it), ``owner`` the channel it serves (opaque
    to the controller), ``tenant_id`` the tenant its buffers are
    charged to.  ``stats["delivered"]`` counts what the controller
    placed."""

    def __init__(self, capacity: int, owner: Any = None) -> None:
        if capacity <= 0:
            raise ValueError("region capacity must be positive")
        self.capacity = capacity
        self.available = capacity
        self.bqi = 0
        self.owner = owner
        self.tenant_id: Any = None
        self.pinned = False
        self.size = capacity * BUFFER_BYTES
        self.pages = (self.size + PAGE_SIZE - 1) // PAGE_SIZE
        self.stats = Counters()

    def __repr__(self) -> str:
        wired = " pinned" if self.pinned else ""
        return f"<SharedRegion bqi={self.bqi} {self.available}/{self.capacity} free{wired}>"

    def replenish(self) -> None:
        """Give one consumed buffer back (paper: "When the library is
        done with the buffer it hands it back to the network module
        which adds it to the BQI ring")."""
        self.available += 1


def vm_wire(kernel: Kernel, region: SharedRegion) -> Generator:
    """Pin the region's pages so DMA/interrupt paths can use them."""
    if region.pinned:
        return region
    cost = kernel.costs.vm_wire_page * region.pages
    if cost and (turn := kernel.cpu.spend(cost)) is not None:
        yield turn
    region.pinned = True
    return region
