"""The enabled plane: one object owning the span recorder, the profiler
and the histograms.

A stage keeps one name across the plane: where a stage charges a
profile site and records a span, both are called by the site's name
(``tcp.output``, ``tcp.input``, ``netio.send``, ``demux.classify``,
``netio.deliver``, ``router.forward``).  A datapath site reads
:data:`repro.obs.SESSION` once and, when it is set, makes one call
that books everything its stage records: one of the methods below for
a stage that books in two or three places, else the one owned object
it books in (``session.spans.touch`` for a NIC or a dequeue,
``session.profiler.charge`` for a wake-up, ``session.histograms.record``
for an RTT sample).
"""

from __future__ import annotations

from .hist import default_registry
from .profile import SimProfiler
from .spans import SpanRecorder


class ObservabilitySession:
    """Span recorder, sim-time profiler and histograms, on together."""

    def __init__(self, span_capacity: int = 8192) -> None:
        self.spans = SpanRecorder(capacity=span_capacity)
        self.profiler = SimProfiler()
        self.histograms = default_registry()

    def book(
        self,
        name: str,
        packet,
        time: float,
        node: str,
        cost: float,
        detail: str = "",
        wall: float = 0.0,
    ) -> int | None:
        """A costed stage: charge profile site ``name`` and record the
        span of the same name if ``packet`` carries a trace."""
        self.profiler.charge(name, cost, wall)
        return self.spans.touch(packet, name, time, node, detail, cost)

    def mint(
        self, name: str, packet, time: float, node: str, cost: float, detail: str
    ) -> None:
        """A segment's birth (``tcp.output``): charge the site, mint a
        trace id onto ``packet`` and record its first span.  Every
        transmission, retransmissions included, gets its own id."""
        self.profiler.charge(name, cost)
        spans = self.spans
        tid = spans.mint(time, detail)
        packet.trace_id = tid
        spans.record(tid, name, time, node, detail, cost)

    def deliver(self, payload, time: float, node: str, channel, cost: float) -> None:
        """``netio.deliver``: the charge, the span, and the traced
        packet's birth-to-ring latency (per tenant too)."""
        self.profiler.charge("netio.deliver", cost)
        spans = self.spans
        tid = spans.touch(payload, "netio.deliver", time, node, channel.name, cost)
        if tid is None:
            return
        born = spans.birth(tid)
        if born is None:
            return
        latency = time - born[0]
        histograms = self.histograms
        histograms.record("delivery.latency", latency)
        if channel.tenant_id is not None:
            histograms.record(f"tenant.{channel.tenant_id}.latency", latency)

    def enqueue(
        self, frame, time: float, node: str, depth: int, capacity: int, admitted: bool
    ) -> None:
        """A switch queue's offer: the occupancy ``frame`` found, and
        ``queue.enq`` or ``queue.drop``."""
        self.histograms.record("queue.occupancy", depth / capacity)
        self.spans.touch(
            frame, "queue.enq" if admitted else "queue.drop", time, node,
            f"depth={depth}/{capacity}",
        )

    def wire(self, frame, plan, time: float, node: str) -> None:
        """A link turn under a fault plan: ``link.drop`` when nothing is
        delivered, else ``link.tx`` annotated with corruption and
        duplication.  Corrupted and duplicated deliveries are new or
        copied bytes; they are bound to the trace so the receive side
        still resolves them."""
        deliveries = plan.deliveries
        spans = self.spans
        if not deliveries:
            spans.touch(frame, "link.drop", time, node, "fault")
            return
        detail = "corrupt" if plan.corrupted else ""
        if len(deliveries) > 1:
            detail = f"{detail} dup x{len(deliveries)}".strip()
        tid = spans.touch(frame, "link.tx", time, node, detail)
        if tid is not None:
            for _, data in deliveries:
                if data is not frame:
                    spans.bind_wire(data, tid)
