"""Simulated links: the shared 10 Mb/s Ethernet, the 100 Mb/s AN1, and
the full-duplex point-to-point cables of the switched fabric.

A link serializes frames at its bit rate (with per-frame overheads
accounted exactly — preamble, FCS, inter-frame gap), applies the fault
injector, and delivers to receiving NICs after a propagation delay.
Links never consume host CPU: all CPU charging happens in the NICs and
the network I/O modules.
"""

from __future__ import annotations

from ..counters import Counters
import abc
from typing import TYPE_CHECKING, Callable, Optional

from ..obs import spans as _spans
from ..sim import Event, Serial, Simulator
from .buf import as_wire_bytes
from .faults import FaultInjector, FaultPlan, PERFECT
from .headers import An1Header, BROADCAST_MAC, EthernetHeader

if TYPE_CHECKING:
    from .nic.base import Nic

#: Observer of fault decisions: ``(link, offered_frame, plan)``.  Called
#: for every frame after the injector decides its fate — the hook the
#: conformance campaign uses to log exactly which frames were dropped,
#: corrupted, or duplicated (the wire tracer only sees pre-fault bytes).
FaultObserver = Callable[["Link", bytes, FaultPlan], None]


class Link(abc.ABC):
    """Base class for simulated network segments."""

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float,
        propagation_delay: float,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.bit_rate = bit_rate
        self.propagation_delay = propagation_delay
        self.faults = faults or PERFECT
        self.nics: list["Nic"] = []
        self.fault_observers: list[FaultObserver] = []
        # Per-frame traffic counters live as plain attributes: three
        # dict-subclass item assignments per transmitted frame show up
        # at fabric scale.  ``stats`` materializes them on read.
        self._frames = 0
        self._tx_bytes = 0
        self._busy_time = 0.0

    @property
    def stats(self) -> dict:
        """Traffic counters plus the injector's authoritative fault
        counters.  The fault numbers are *read* from the injector rather
        than counted a second time here, so ``Link.stats`` and
        ``FaultInjector.stats`` can never disagree."""
        merged = Counters()
        merged["frames"] = self._frames
        merged["bytes"] = self._tx_bytes
        merged["busy_time"] = self._busy_time
        fault_stats = self.faults.stats
        merged["dropped"] = fault_stats["dropped"]
        merged["corrupted"] = fault_stats["corrupted"]
        merged["duplicated"] = fault_stats["duplicated"]
        return merged

    def attach(self, nic: "Nic") -> None:
        """Register a NIC on this segment.

        A NIC may appear on the segment only once: a double attach would
        silently double-deliver every frame addressed to it.
        """
        if nic in self.nics:
            raise ValueError(f"{nic!r} is already attached to this link")
        self.nics.append(nic)

    @property
    @abc.abstractmethod
    def max_frame(self) -> int:
        """Largest frame the link accepts, link headers included."""

    @abc.abstractmethod
    def transmit(self, sender: "Nic", frame: bytes):
        """Generator: serialize ``frame`` onto the wire and deliver it.

        ``frame`` may be a fragment chain; the wire is where it becomes
        flat octets (the simulated DMA/PIO boundary), so fault injection
        and receivers always see real bytes."""

    def _deliver_later(self, receivers: list["Nic"], frame: bytes) -> None:
        faults = self.faults
        if faults.inert and not self.fault_observers and _spans.RECORDER is None:
            # No fault model, nobody watching: skip the per-frame
            # FaultPlan allocation entirely.  Same deliveries, same
            # engine events as the planned path would produce.
            delay = self.propagation_delay
            for nic in receivers:
                self._schedule_delivery(nic, frame, delay)
            return
        plan = faults.plan(frame)
        for observer in self.fault_observers:
            observer(self, frame, plan)
        rec = _spans.RECORDER
        if rec is not None:
            tid = rec.trace_of(frame)
            if tid is not None:
                node = type(self).__name__
                if not plan.deliveries:
                    rec.record(tid, "link.drop", self.sim.now, node, detail="fault")
                else:
                    detail = ""
                    if plan.corrupted:
                        detail = "corrupt"
                    if len(plan.deliveries) > 1:
                        detail = (detail + f" dup x{len(plan.deliveries)}").strip()
                    rec.record(tid, "link.tx", self.sim.now, node, detail=detail)
                    # Corruption and duplication replace or copy the wire
                    # bytes; re-bind the delivered objects so the receive
                    # side still resolves them to this trace.
                    for _, data in plan.deliveries:
                        if data is not frame:
                            rec.bind_wire(data, tid)
        for extra_delay, data in plan.deliveries:
            for nic in receivers:
                self._schedule_delivery(
                    nic, data, self.propagation_delay + extra_delay
                )

    def _schedule_delivery(self, nic: "Nic", data: bytes, delay: float) -> None:
        sim = self.sim
        event = Event(sim)
        event.callbacks.append(lambda _: nic.wire_deliver(data))
        event._ok = True
        event._value = None
        sim.schedule(event, delay=delay)


class EthernetLink(Link):
    """10 Mb/s shared-medium Ethernet.

    One transmitter at a time (contention modelled as FIFO queueing for
    the medium, a fair simplification of CSMA/CD on a two-host segment).
    Per-frame overhead: 8-byte preamble, 4-byte FCS, minimum 64-byte
    frame, and the 9.6 µs inter-frame gap — this is what makes the
    standalone saturation figure ~9.5 Mb/s of user payload rather
    than 10.
    """

    PREAMBLE = 8
    FCS = 4
    MIN_FRAME = 64
    IFG = 9.6e-6
    MTU_DATA = 1500  # Payload after the 14-byte link header.

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float = 10e6,
        propagation_delay: float = 10e-6,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, bit_rate, propagation_delay, faults)
        self._medium = Serial(sim)

    @property
    def max_frame(self) -> int:
        return EthernetHeader.LENGTH + self.MTU_DATA

    def frame_time(self, length: int) -> float:
        """Wire occupancy for a frame of ``length`` bytes (ex. IFG)."""
        on_wire = self.PREAMBLE + max(length, self.MIN_FRAME) + self.FCS
        return on_wire * 8 / self.bit_rate

    def transmit(self, sender: "Nic", frame: bytes):
        if len(frame) > self.max_frame:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds Ethernet maximum "
                f"{self.max_frame}"
            )
        frame = as_wire_bytes(frame)
        busy = self.frame_time(len(frame)) + self.IFG
        yield self._medium.hold(busy)
        self._frames += 1
        self._tx_bytes += len(frame)
        self._busy_time += busy
        # The wire only routes on the destination MAC; decoding the
        # full header per frame is receiver-side work.
        dst = frame[:6]
        receivers = [
            nic
            for nic in self.nics
            if nic is not sender and nic.accepts(dst)
        ]
        self._deliver_later(receivers, frame)


class DuplexLink(EthernetLink):
    """Full-duplex point-to-point Ethernet-framed segment.

    The switched fabric's cabling: each endpoint (a host NIC or a switch
    port) serializes independently at the link's bit rate, so the two
    directions never contend — unlike the shared-medium
    :class:`EthernetLink`, there is no CSMA queueing between them.  The
    frame format, per-frame overheads, and MTU are plain Ethernet, which
    is what lets :class:`~repro.net.nic.pmadd.PmaddNic` drive one
    unmodified.
    """

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float = 10e6,
        propagation_delay: float = 2e-6,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, bit_rate, propagation_delay, faults)
        #: One serialization timeline per transmitter (full duplex).
        self._tx_channels: dict[int, Serial] = {}

    def transmit(self, sender: "Nic", frame: bytes):
        if len(frame) > self.max_frame:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds Ethernet maximum "
                f"{self.max_frame}"
            )
        frame = as_wire_bytes(frame)
        channel = self._tx_channels.get(id(sender))
        if channel is None:
            channel = self._tx_channels[id(sender)] = Serial(self.sim)
        busy = self.frame_time(len(frame)) + self.IFG
        yield channel.hold(busy)
        self._frames += 1
        self._tx_bytes += len(frame)
        self._busy_time += busy
        dst = frame[:6]
        receivers = [
            nic
            for nic in self.nics
            if nic is not sender and nic.accepts(dst)
        ]
        self._deliver_later(receivers, frame)


class An1Link(Link):
    """100 Mb/s DEC SRC AN1 (Autonet) private segment.

    The paper used "a switchless, private segment": effectively a
    full-duplex point-to-point link, so each transmitter gets its own
    serialization resource.  The frame-size limit is NOT the hardware's
    (AN1 frames can reach 64 KB) — the paper's driver "encapsulates data
    into an Ethernet datagram and restricts network transmissions to
    1500-byte packets", an artifact the benchmarks must reproduce, so
    the driver enforces it, not the link.
    """

    OVERHEAD = 12  # Flag/CRC/framing bytes around the AN1 header.
    GAP = 1e-6
    HARDWARE_MAX_DATA = 65536

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float = 100e6,
        propagation_delay: float = 5e-6,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, bit_rate, propagation_delay, faults)
        self._channels: dict[int, Serial] = {}

    @property
    def max_frame(self) -> int:
        return An1Header.LENGTH + self.HARDWARE_MAX_DATA

    def frame_time(self, length: int) -> float:
        return (length + self.OVERHEAD) * 8 / self.bit_rate

    def transmit(self, sender: "Nic", frame: bytes):
        if len(frame) > self.max_frame:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds AN1 maximum"
            )
        frame = as_wire_bytes(frame)
        channel = self._channels.get(id(sender))
        if channel is None:
            channel = self._channels[id(sender)] = Serial(self.sim)
        busy = self.frame_time(len(frame)) + self.GAP
        yield channel.hold(busy)
        self._frames += 1
        self._tx_bytes += len(frame)
        self._busy_time += busy
        header = An1Header.unpack(frame)
        receivers = [
            nic
            for nic in self.nics
            if nic is not sender and nic.accepts(header.dst)
        ]
        self._deliver_later(receivers, frame)
