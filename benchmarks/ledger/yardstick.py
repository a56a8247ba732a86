"""A frozen reference kernel that says how fast the box is right now.

This box shares its cores: co-tenants slow everything by 1.3x or 1.6x
for seconds to minutes at a time, so ten raw medians of CPU time spread
10-23 % and two sets of ten drift 13 % apart.  The harness runs this
kernel next to every timed rep and reports host time at the speed at
which the kernel takes ``NOMINAL_S``; measured here, that cuts the
spread of medians-of-five by a factor of 2.6.

The kernel is a miniature of the program's instruction mix — generator
processes resumed off a heap, small slotted objects, header packing,
byte slicing, dict traffic — and imports nothing of the program, so no
change to the program can move it.  Do not edit it: every recorded
``host_us_per_op`` is in its units.
"""

from __future__ import annotations

import heapq
import struct
import time

#: Events per sample: a quarter of a second, long enough to average the
#: sub-100 ms bursts that a shorter sample would mistake for a regime.
EVENTS = 125_000
#: The kernel's CPU seconds on this box when nothing else runs on it.
NOMINAL_S = 0.24
_FLOWS = 64
_HEADER = struct.Struct(">IIHH")


class _Packet:
    __slots__ = ("seq", "flow", "data", "check")

    def __init__(self, seq: int, flow: int, data, check: int) -> None:
        self.seq = seq
        self.flow = flow
        self.data = data
        self.check = check


def _flow(index: int, table: dict):
    body = bytes(range(256)) * 6
    seq = 0
    yield 0.0
    while True:
        size = 64 + (seq * 37 + index) % 1400
        view = memoryview(_HEADER.pack(seq, index, size, 0) + body[:size])
        table[index] = _Packet(seq, index, view[12:], sum(view[:12]))
        other = table.get((index * 7 + seq) % _FLOWS)
        if other is not None and other.seq > seq:
            seq = other.seq
        seq += 1
        yield 1e-3 + (size % 7) * 1e-4


def sample() -> float:
    """CPU seconds for one fixed run of the kernel."""
    table: dict = {}
    heap: list = []
    for index in range(_FLOWS):
        flow = _flow(index, table)
        next(flow)
        heapq.heappush(heap, (0.0, index, flow))
    count = _FLOWS
    start = time.process_time()
    for _ in range(EVENTS):
        now, _, flow = heapq.heappop(heap)
        delay = flow.send(now)
        count += 1
        heapq.heappush(heap, (now + delay, count, flow))
    return time.process_time() - start
