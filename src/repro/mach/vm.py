"""Virtual-memory operations for shared packet-buffer regions.

The network I/O module and the protocol library share a pinned region
that packets move through without copies — the paper's central buffering
mechanism.  We model a region's identity, size, pinning, and the tasks it
is mapped into.  Wiring charges its (setup-time-only) cost here; the
network I/O module charges the mapping when it builds a channel.
"""

from __future__ import annotations

from typing import Generator, Set

from .kernel import Kernel
from .task import Task

PAGE_SIZE = 4096


class SharedRegion:
    """A pinned, shareable buffer region.

    The actual packet bytes travel in frame objects through the ring
    structures (see :mod:`repro.netio.channels`); the region tracks the
    memory-management state (size, wiring, mappings) and is the unit the
    registry server sets up at connection-establishment time.
    """

    _counter = 0

    def __init__(self, kernel: Kernel, size: int, name: str = "") -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        SharedRegion._counter += 1
        self.kernel = kernel
        self.size = size
        #: Number of pages the region spans.
        self.pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        self.name = name or f"region-{SharedRegion._counter}"
        self.pinned = False
        self.mapped: Set[Task] = set()

    def __repr__(self) -> str:
        wired = " pinned" if self.pinned else ""
        return f"<SharedRegion {self.name} {self.size}B{wired} maps={len(self.mapped)}>"


def vm_wire(kernel: Kernel, region: SharedRegion) -> Generator:
    """Pin the region's pages so DMA/interrupt paths can use them."""
    if region.pinned:
        return region
    cost = kernel.costs.vm_wire_page * region.pages
    if cost:
        yield kernel.cpu.charge(cost)
    region.pinned = True
    return region
