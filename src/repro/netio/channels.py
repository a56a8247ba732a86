"""Channels: the per-connection conduit between the network I/O module
and a protocol library.

A channel owns the shared region (its pinned receive buffers; on AN1
the ring a BQI names), the receive queue, the lightweight notification
semaphore (with the paper's packet batching: "our implementation
attempts, where possible, to batch multiple network packets per
semaphore notification in order to amortize the cost of signaling"),
and the send-side capability (template).  The semaphore is C-Threads'
user-level one: its P charges the small sync cost, and the network I/O
module charges the kernel-to-user signal.  Every queued frame holds one
of the region's buffers; :meth:`Channel.receive_batch` gives one back
for each frame it returns.
"""

from __future__ import annotations

from ..counters import Counters
from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, Optional

from ..mach.task import Task
from ..mach.vm import SharedRegion
from ..sim import Event
from .template import HeaderTemplate

if TYPE_CHECKING:
    from .demux import FlowKey
    from .pktfilter import FilterProgram


class ChannelClosed(Exception):
    """Operation on a torn-down channel."""


class Channel:
    """One protected packet path between kernel and library."""

    _counter = 0

    def __init__(
        self,
        owner: Task,
        template: HeaderTemplate,
        region: SharedRegion,
        demux_filter: "Optional[FilterProgram]" = None,
        name: str = "",
        batching: bool = True,
        with_link_info: bool = False,
    ) -> None:
        Channel._counter += 1
        #: Ablation switch: when False, every packet needs its own
        #: notification and receive_batch returns one packet at a time.
        self.batching = batching
        #: Connectionless channels receive (payload, link_info) pairs so
        #: the library can *discover* peer BQIs from link headers (paper
        #: §5); connection channels receive bare payloads.
        self.with_link_info = with_link_info
        self.owner = owner
        self.template = template
        self.region = region
        #: The filter program claiming this channel's frames in a
        #: ``ScanTable`` (interpreted demux styles only).
        self.demux_filter = demux_filter
        #: The flow-table entry this channel owns, set by the network
        #: I/O module when the flow is registered.
        self.flow_key: "Optional[FlowKey]" = None
        #: Tenant attribution, stamped by the network I/O module at
        #: creation (None on untenanted stacks).  Compared against the
        #: *current* owner task's tenant on every send and delivery, so
        #: a channel handed off across the tenant boundary stops
        #: working instead of leaking the flow.
        self.tenant_id: Optional[str] = None
        self.name = name or f"channel-{Channel._counter}"
        self.kernel = owner.kernel
        #: The semaphore: banked signals (readers park rather than take
        #: it negative) and the parked readers, woken FIFO.
        self.banked = 0
        self._waiters: Deque[Event] = deque()
        self.rx_queue: Deque[bytes] = deque()
        self._notified = False
        #: True when the last receive_batch had to block (the waiter was
        #: asleep and needed a kernel wakeup); False when packets were
        #: already queued and the C-Threads semaphore was a fast path.
        self.last_wait_blocked = False
        self.closed = False
        self.stats = Counters()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self.rx_queue)} queued"
        return f"<Channel {self.name} owner={self.owner.name} {state}>"

    @property
    def signal_cost_due(self) -> bool:
        """True when the next delivery must pay a semaphore signal."""
        return not self._notified

    def deliver(self, frame: bytes, link_info: object = None) -> bool:
        """Kernel side: queue a frame for the library.

        Returns True when the caller owes a semaphore-signal cost (the
        batching optimization: frames queued while the library hasn't
        yet drained ride the same notification for free).
        """
        if self.closed:
            return False
        if self.with_link_info:
            frame = (frame, link_info)
        self.rx_queue.append(frame)
        self.stats["delivered"] += 1
        if self.batching:
            if self._notified:
                return False
            self._notified = True
        self.stats["signals"] += 1
        self.signal()
        return True

    @property
    def waiting(self) -> int:
        """Number of readers parked in :meth:`receive_batch`."""
        return len(self._waiters)

    def signal(self, n: int = 1) -> None:
        """V: wake ``n`` parked readers or bank the count (free here:
        the caller charges a kernel-to-user signal)."""
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self.banked += 1

    def receive_batch(self) -> Generator:
        """Library side: P on the semaphore, then drain everything queued.

        Returns the list of frames (possibly many per one signal).
        """
        if self.closed:
            raise ChannelClosed(self.name)
        kernel = self.kernel
        self.last_wait_blocked = not self.banked
        cost = kernel.costs.cthread_sync_op
        if cost and (turn := kernel.cpu.spend(cost)) is not None:
            yield turn
        if self.banked:
            self.banked -= 1
        else:
            event = kernel.sim.park(self._waiters)
            try:
                yield event
            except BaseException:
                # Interrupted while parked: withdraw, so a later signal
                # is not swallowed by a dead event.  If a signal already
                # picked this reader, pass it on to the next.
                try:
                    self._waiters.remove(event)
                except ValueError:
                    if event.triggered:
                        self.signal()
                raise
        if self.closed:
            raise ChannelClosed(self.name)
        if self.batching:
            batch = list(self.rx_queue)
            self.rx_queue.clear()
        else:
            batch = [self.rx_queue.popleft()] if self.rx_queue else []
        self._notified = False
        taken = len(batch)
        self.stats["batches"] += 1
        self.stats["batched_packets"] += taken
        # One ``region.replenish()`` per frame of the batch, inlined.
        self.region.available += taken
        return batch

    @property
    def mean_batch_size(self) -> float:
        """Average packets amortized per semaphore notification."""
        if not self.stats["batches"]:
            return 0.0
        return self.stats["batched_packets"] / self.stats["batches"]

    def close(self) -> None:
        """Tear down: wake any waiter so it can observe the closure."""
        if self.closed:
            return
        self.closed = True
        self.rx_queue.clear()
        self.signal(max(1, self.waiting))
