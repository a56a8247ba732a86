"""Finite per-port egress queues for the switched fabric.

This is where congestion becomes *loss*: a switch output port drains at
the attached link's bit rate, and frames arriving faster than that
accumulate here until the byte capacity is exceeded — after which the
queue discipline decides who is discarded.  Two disciplines are
provided: plain byte-capacity tail drop, and RED (random early
detection) which begins dropping probabilistically as the *average*
occupancy rises, before the queue is physically full.

Queues also keep the observability the benchmarks need: drop counters,
peak depth, and an occupancy histogram (fraction-of-capacity buckets
sampled at every arrival) that :mod:`repro.netstat` renders.
"""

from __future__ import annotations

from ...counters import Counters
import random
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ...obs import hist as _hist
from ...obs import spans as _spans
from ...sim import Simulator

if TYPE_CHECKING:
    from ..link import Transmitter


class EgressQueue:
    """Byte-capacity FIFO with tail drop; base class for disciplines.

    The switch calls :meth:`offer` (non-blocking: the frame is queued
    or dropped, never back-pressured — a switch cannot pause the wire).
    An admitted frame that finds the port's :attr:`transmitter` idle is
    handed straight to it; otherwise it waits here until the
    transmitter, at the end of a turn, takes it with :meth:`pop`.
    """

    #: Occupancy histogram resolution: fraction-of-capacity buckets.
    BUCKETS = 10

    def __init__(self, sim: Simulator, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.sim = sim
        self.capacity = capacity_bytes
        #: Span/netstat label; the owning port overwrites it with its own.
        self.name = "queue"
        self._frames: Deque[bytes] = deque()
        #: The owning port's transmitter; None for a free-standing
        #: queue, which then only accumulates.
        self.transmitter: Optional["Transmitter"] = None
        self.depth_bytes = 0
        self.peak_bytes = 0
        #: Histogram of queue occupancy (depth/capacity) sampled at
        #: each arrival, including arrivals that end up dropped.
        self.occupancy = [0] * self.BUCKETS
        self.stats = Counters()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def discipline(self) -> str:
        return "taildrop"

    def _admit(self, frame: bytes) -> bool:
        """Discipline hook: may ``frame`` enter the queue right now?"""
        return self.depth_bytes + len(frame) <= self.capacity

    def offer(self, frame: bytes) -> bool:
        """Kernel side: enqueue ``frame`` or drop it.  Never blocks."""
        bucket = min(
            self.BUCKETS - 1,
            int(self.depth_bytes * self.BUCKETS / self.capacity),
        )
        self.occupancy[bucket] += 1
        reg = _hist.REGISTRY
        if reg is not None:
            reg.record("queue.occupancy", self.depth_bytes / self.capacity)
        rec = _spans.RECORDER
        if not self._admit(frame):
            self.stats["dropped"] += 1
            self.stats["dropped_bytes"] += len(frame)
            if rec is not None:
                rec.touch(
                    frame, "queue.drop", self.sim.now, self.name,
                    detail=f"depth={self.depth_bytes}/{self.capacity}",
                )
            return False
        self.stats["enqueued"] += 1
        self.stats["enqueued_bytes"] += len(frame)
        if rec is not None:
            rec.touch(
                frame, "queue.enq", self.sim.now, self.name,
                detail=f"depth={self.depth_bytes}/{self.capacity}",
            )
        transmitter = self.transmitter
        if transmitter is not None and not transmitter.busy:
            # The transmitter is idle: hand the frame straight over
            # without it ever occupying the queue.
            self.stats["dequeued"] += 1
            transmitter.start(frame)
            return True
        self._frames.append(frame)
        self.depth_bytes += len(frame)
        self.peak_bytes = max(self.peak_bytes, self.depth_bytes)
        return True

    def pop(self) -> Optional[bytes]:
        """Port side: the next frame to send, or None when empty."""
        if not self._frames:
            return None
        frame = self._frames.popleft()
        self.depth_bytes -= len(frame)
        self.stats["dequeued"] += 1
        rec = _spans.RECORDER
        if rec is not None:
            rec.touch(frame, "queue.deq", self.sim.now, self.name)
        return frame

    def mean_occupancy(self) -> float:
        """Average sampled occupancy as a fraction of capacity."""
        samples = sum(self.occupancy)
        if not samples:
            return 0.0
        width = 1.0 / self.BUCKETS
        total = sum(
            count * (index + 0.5) * width
            for index, count in enumerate(self.occupancy)
        )
        return total / samples


class TailDropQueue(EgressQueue):
    """The default discipline: admit until the byte capacity is hit."""


class RedQueue(EgressQueue):
    """Random early detection (Floyd & Jacobson 1993).

    Tracks an EWMA of the queue depth; arrivals are admitted below
    ``min_th``, dropped with a probability ramping to ``max_p`` between
    ``min_th`` and ``max_th``, and dropped outright above ``max_th``.
    A physically full queue still tail-drops regardless of the average.
    The RNG is seeded so runs stay reproducible.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bytes: int,
        min_th: Optional[int] = None,
        max_th: Optional[int] = None,
        max_p: float = 0.1,
        weight: float = 0.2,
        seed: int = 0,
    ) -> None:
        super().__init__(sim, capacity_bytes)
        self.min_th = min_th if min_th is not None else capacity_bytes // 4
        self.max_th = max_th if max_th is not None else (capacity_bytes * 3) // 4
        if not 0 < self.min_th < self.max_th <= capacity_bytes:
            raise ValueError(
                f"need 0 < min_th ({self.min_th}) < max_th ({self.max_th})"
                f" <= capacity ({capacity_bytes})"
            )
        self.max_p = max_p
        self.weight = weight
        self.avg_bytes = 0.0
        self._rng = random.Random(seed)

    @property
    def discipline(self) -> str:
        return "red"

    def _admit(self, frame: bytes) -> bool:
        self.avg_bytes += self.weight * (self.depth_bytes - self.avg_bytes)
        if self.depth_bytes + len(frame) > self.capacity:
            return False  # Physically full: forced tail drop.
        if self.avg_bytes < self.min_th:
            return True
        if self.avg_bytes >= self.max_th:
            self.stats["early_dropped"] += 1
            return False
        probability = (
            self.max_p
            * (self.avg_bytes - self.min_th)
            / (self.max_th - self.min_th)
        )
        if self._rng.random() < probability:
            self.stats["early_dropped"] += 1
            return False
        return True
