"""Packet-lifecycle spans.

A *trace id* is minted when a packet is encoded (or first enters the
netio layer) and travels with it across every hop: it rides on the
:class:`~repro.net.buf.PacketBuffer` ``trace_id`` slot while the packet
is a fragment chain, and on an identity map keyed by ``id(frame)`` once
the chain is fused into flat wire ``bytes``.  ``prepend()`` at the IP
and link layers builds new chains *around* the old one, and
``PacketBuffer`` inherits the trace id of its first traced constituent,
so the id survives encapsulation without any per-layer plumbing.

Each instrumented stage appends a :class:`SpanEvent` ``(trace_id, stage,
sim_time, node, detail, cost)`` into one bounded ring shared by all
hosts.  Reconstructing a packet's end-to-end timeline — including queue
wait, fault drops, duplications, and which transmissions were
retransmits — is then a filter over the ring.

The recorder is owned by the plane's one switch,
:data:`repro.obs.SESSION`; instrumented sites pay one attribute load
and an ``is None`` test when the plane is off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SpanEvent:
    trace_id: int
    stage: str
    time: float
    node: str
    detail: str = ""
    cost: float = 0.0


class SpanRecorder:
    """Bounded ring of span events plus the wire-bytes identity map.

    ``capacity`` bounds the event ring; the identity map and birth-time
    table are bounded separately (FIFO eviction) so a long run cannot
    grow memory no matter how many packets it traces.
    """

    def __init__(self, capacity: int = 8192, wire_capacity: int | None = None) -> None:
        self.capacity = capacity
        self.events: deque[SpanEvent] = deque(maxlen=capacity)
        self._next_id = 1
        # id(bytes) -> trace_id for fused wire frames.  Entries are
        # evicted FIFO; a stale entry whose bytes object was garbage
        # collected and its id reused would mis-attribute a hop, so the
        # map is kept small and re-bound on every fusion.
        self._wire_cap = wire_capacity if wire_capacity is not None else max(1024, capacity // 4)
        self._wire: dict[int, int] = {}
        self._wire_order: deque[int] = deque()
        # trace_id -> (birth sim_time, birth detail) for latency math
        # and seq lookup; same FIFO bound as the wire map.
        self._births: dict[int, tuple[float, str]] = {}
        self._birth_order: deque[int] = deque()
        self.minted = 0
        self.recorded = 0

    # -- minting and binding ------------------------------------------

    def mint(self, time: float, detail: str = "") -> int:
        tid = self._next_id
        self._next_id += 1
        self.minted += 1
        self._births[tid] = (time, detail)
        self._birth_order.append(tid)
        if len(self._birth_order) > self._wire_cap:
            old = self._birth_order.popleft()
            self._births.pop(old, None)
        return tid

    def bind_wire(self, data, tid: int) -> None:
        """Associate fused wire bytes with a trace id by identity."""
        key = id(data)
        if key not in self._wire:
            self._wire_order.append(key)
            if len(self._wire_order) > self._wire_cap:
                old = self._wire_order.popleft()
                self._wire.pop(old, None)
        self._wire[key] = tid

    def trace_of(self, obj) -> int | None:
        """Recover the trace id carried by a packet at any layer.

        Accepts flat ``bytes`` (looked up in the identity map), a
        ``PacketBuffer`` (reads the ``trace_id`` slot), or a
        ``memoryview`` (looks up its exporting base object — the fused
        frame — in the identity map).
        """
        kind = type(obj)
        if kind is memoryview:
            obj = obj.obj  # the exporter: the fused frame
        elif kind is not bytes:
            tid = getattr(obj, "trace_id", None)
            if tid is not None:
                return tid
        return self._wire.get(id(obj))

    def birth(self, tid: int) -> tuple[float, str] | None:
        """``(sim_time, detail)`` of the trace's mint, or ``None`` once
        the bounded birth table has evicted it."""
        return self._births.get(tid)

    # -- recording ----------------------------------------------------

    def record(
        self,
        tid: int,
        stage: str,
        time: float,
        node: str,
        detail: str = "",
        cost: float = 0.0,
    ) -> None:
        self.recorded += 1
        self.events.append(SpanEvent(tid, stage, time, node, detail, cost))

    def touch(
        self,
        obj,
        stage: str,
        time: float,
        node: str,
        detail: str = "",
        cost: float = 0.0,
    ) -> int | None:
        """Record a stage for a packet if (and only if) it carries a trace."""
        tid = self.trace_of(obj)
        if tid is not None:
            self.recorded += 1
            self.events.append(SpanEvent(tid, stage, time, node, detail, cost))
        return tid

    # -- reconstruction -----------------------------------------------

    def timeline(self, tid: int) -> list[SpanEvent]:
        """All events for one trace, in recorded (time) order."""
        return [ev for ev in self.events if ev.trace_id == tid]

    def traces_matching(self, substring: str) -> list[int]:
        """Trace ids whose events' detail contains ``substring``."""
        seen: dict[int, None] = {}
        for ev in self.events:
            if substring in ev.detail:
                seen.setdefault(ev.trace_id, None)
        return list(seen)

    def render_timeline(self, tid: int) -> str:
        """Human-readable per-hop timeline for one trace."""
        events = self.timeline(tid)
        if not events:
            return f"trace {tid}: no events (evicted or unknown)"
        t0 = events[0].time
        lines = [f"trace {tid} (t0={t0 * 1e3:.3f} ms)"]
        for ev in events:
            dt = (ev.time - t0) * 1e6
            cost = f"  cost={ev.cost * 1e6:.1f}us" if ev.cost else ""
            detail = f"  {ev.detail}" if ev.detail else ""
            lines.append(f"  +{dt:10.1f}us  {ev.stage:<14} @{ev.node}{cost}{detail}")
        return "\n".join(lines)

    def stats(self) -> dict:
        return {
            "minted": self.minted,
            "recorded": self.recorded,
            "retained": len(self.events),
            "capacity": self.capacity,
            "wire_bindings": len(self._wire),
        }
