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
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .. import obs as _obs
from ..sim import Event, Serial, Simulator
from .buf import as_wire_bytes
from .faults import FaultInjector, PERFECT
from .headers import An1Header, EthernetHeader

if TYPE_CHECKING:
    from .nic.base import Nic

class Link:
    """Base class for simulated network segments.

    A link class says how long a frame occupies the wire by its framing
    constants, which one formula reads (:meth:`wire_time`).  Who hears
    a frame is learned at attach — each NIC's peers, the other attached
    NICs — and narrowed per frame by each peer's own address filter,
    ``accepts(frame)``.  Taking turns on the wire is the
    :class:`Transmitter`'s job.
    """

    #: True when every sender contends for one medium; otherwise each
    #: transmitter serializes on a timeline of its own (full duplex).
    SHARED_MEDIUM = False
    #: Framing (:meth:`wire_time`): a runt is padded to ``MIN_FRAME`` bytes,
    #: ``OVERHEAD`` bytes go with each frame, ``GAP`` idle seconds follow it.
    MIN_FRAME = 0
    OVERHEAD = 0
    GAP = 0.0

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
        #: Every attached NIC, in attach order, mapped to the others in
        #: attach order: everyone who hears its frames.
        self._peers: dict["Nic", tuple["Nic", ...]] = {}
        #: Who watches this link's frames (a
        #: :class:`~repro.trace.WireTrace`, or any object with the same
        #: two methods).  Each is told of a frame twice:
        #: ``offered(frame)`` at the instant a transmitter offers the
        #: flat bytes to the wire (what a tcpdump on the sending
        #: interface would capture), and ``planned(frame, plan)`` when
        #: its turn ends and the fault injector has decided its fate.
        self.watchers: list[Any] = []
        self._medium = Serial(sim) if self.SHARED_MEDIUM else None
        #: Traffic: frames, bytes, busy_time, and the ``unaddressed``
        #: copies no attached NIC's filter accepted.  What the injector
        #: did to them is counted once, in ``faults.stats``.
        self.stats = Counters()

    def attach(self, nic: "Nic") -> None:
        """Register a NIC on this segment.

        A NIC may appear on the segment only once: a double attach would
        silently double-deliver every frame addressed to it.
        """
        peers = self._peers
        if nic in peers:
            raise ValueError(f"{nic!r} is already attached to this link")
        for other in peers:
            peers[other] += (nic,)
        peers[nic] = tuple(peers)

    @property
    def nics(self) -> tuple["Nic", ...]:
        """Every attached NIC, in attach order."""
        return tuple(self._peers)

    def wire_time(self, length: int) -> float:
        """How long a frame of ``length`` bytes holds the wire, the gap
        after it included."""
        return (max(length, self.MIN_FRAME) + self.OVERHEAD) * 8 / self.bit_rate + self.GAP

    def receivers(self, sender: "Nic", frame: bytes) -> list["Nic"]:
        """The attached NICs, other than ``sender``, whose address
        filter accepts the flat ``frame`` (a planned copy)."""
        return [nic for nic in self._peers[sender] if nic.accepts(frame)]

    def _deliver_later(self, sender: "Nic", frame: bytes, obs) -> None:
        """Deliver ``sender``'s ``frame`` as the fault injector plans it,
        shown to the link's watchers and to ``obs``, the plane's session
        (or ``None``).  A quiet link never comes here
        (:meth:`Transmitter._turn_over`)."""
        plan = self.faults.plan(frame)
        for watcher in self.watchers:
            watcher.planned(frame, plan)
        if obs is not None:
            obs.wire(frame, plan, self.sim.now, type(self).__name__)
        counted = self.watchers or not self.faults.inert
        for extra_delay, data in plan.deliveries:
            # Filtered as planned: a copy whose destination the injector
            # corrupted reaches whoever it now names, if anyone.  A quiet
            # link, planned only for the obs plane, does not count one
            # that reaches nobody: there it is a learning switch's flood.
            receivers = self.receivers(sender, data)
            if not receivers and counted:
                self.stats["unaddressed"] += 1
            for nic in receivers:
                self.sim.call_later(
                    self.propagation_delay + extra_delay, partial(nic.wire_deliver, data)
                )


class Transmitter:
    """One sender's FIFO turn-taking onto a link, run by callbacks.

    A frame handed over while the transmitter is idle is offered to the
    wire in the handing-over event itself: flattened if it is still a
    chain (AN1's DMA fetch; a PMADD hands over the bytes its PIO copy
    made), so watchers, fault injection and receivers always see real
    bytes, offered to the link's watchers, and given a turn of
    ``link.wire_time`` on the sender's :class:`~repro.sim.Serial`.  When
    the turn ends the frame is counted on the link, delivered after the
    propagation delay to the sender's peers whose filter accepts it (a
    fault plan is drawn there only when the link has a fault model or
    a watcher, :meth:`Link._deliver_later`), and the next
    frame is pulled — from the transmitter's own bounded staging, or
    from ``pull`` when the owner queues frames itself (a switch port's
    egress queue).  No engine event is spent on a hand-off; the only
    events are the turns themselves.  A turn is two frames,
    :meth:`_wire` and :meth:`_turn_over`.
    """

    def __init__(
        self,
        link: Link,
        sender: "Nic",
        capacity: int = 0,
        pull: Optional[Callable[[], Any]] = None,
        fetch_delay: float = 0.0,
    ) -> None:
        """``capacity`` frames may wait staged behind the one in flight
        (which does not count against it).  ``fetch_delay`` precedes
        each frame's wire time (a controller fetching the frame by DMA)
        and, like the wire time, is not overlapped with the previous
        frame."""
        self.link = link
        self.sender = sender
        #: True from a frame's hand-over until the last queued frame's
        #: turn has ended.
        self.busy = False
        #: ``tx_frames`` / ``tx_bytes`` offered to the wire so far
        #: (counted when a frame's turn begins; staged frames are not in
        #: yet).  A switch port adopts this dict as its own ``stats``.
        self.stats = Counters()
        medium = link._medium
        self._serial = medium if medium is not None else Serial(link.sim)
        self._max_frame = link.max_frame
        self._capacity = capacity
        self._staged: Deque[Any] = deque()
        #: ``(frame, admitted_event)`` of senders waiting for a slot.
        self._blocked: Deque[tuple[Any, Event]] = deque()
        #: The owner's queue, or None: the transmitter's own staging.
        self._pull = pull
        self._fetch_delay = fetch_delay
        # The frame in flight, its length and wire time (one at a time,
        # so plain attributes rather than a closure per frame).
        self._frame: Optional[bytes] = None
        self._length = 0
        self._wire_time = 0.0

    def submit(self, frame: Any) -> Optional[Event]:
        """Send ``frame`` after everything submitted earlier; an idle
        transmitter offers it to the wire now.

        Returns None when the frame was admitted — on the wire, or in
        one of the ``capacity`` staging slots — and otherwise an event
        the sender must wait on: it fires when a slot has been assigned,
        strictly in arrival order.  An oversized frame raises
        ``ValueError`` in the caller before anything is staged, leaving
        the transmitter as it was.  Frames a ``pull`` source hands over
        later are not checked again.
        """
        length = len(frame)
        if length > self._max_frame:
            raise ValueError(
                f"frame of {length} bytes exceeds {type(self.link).__name__} "
                f"maximum {self._max_frame}"
            )
        if not self.busy:
            self.busy = True
            if self._fetch_delay:
                self.link.sim.call_later(self._fetch_delay, partial(self._wire, frame, length))
            else:
                self._wire(frame, length)
            return None
        staged = self._staged
        if len(staged) >= self._capacity:
            admitted = Event(self.link.sim)
            self._blocked.append((frame, admitted))
            return admitted
        staged.append(frame)
        return None

    def _next_staged(self) -> Any:
        """The oldest staged frame; only while one is staged."""
        frame = self._staged.popleft()
        if self._blocked:
            # The freed slot goes to the longest-blocked sender *now*,
            # not when that sender next runs: one arriving later in this
            # same instant finds staging full again and waits behind it.
            waiting, admitted = self._blocked.popleft()
            self._staged.append(waiting)
            admitted.succeed()
        return frame

    def _wire(self, frame: Any, length: int, _event: Optional[Event] = None) -> None:
        link = self.link
        if type(frame) is not bytes:
            # The controller's DMA fetch (AN1): the chain becomes octets
            # here.  A PMADD copied it flat already, and a switch port
            # forwards the bytes a link delivered.
            frame = as_wire_bytes(frame)
        for watcher in link.watchers:
            watcher.offered(frame)
        self._frame = frame
        self._length = length
        stats = self.stats
        stats["tx_frames"] += 1
        stats["tx_bytes"] += length
        # ``link.wire_time(length)``, spelled out: this runs once per
        # frame per hop.
        padded = link.MIN_FRAME if length < link.MIN_FRAME else length
        self._wire_time = wire_time = (padded + link.OVERHEAD) * 8 / link.bit_rate + link.GAP
        self._serial.hold(wire_time, self._turn_over)

    def _turn_over(self, _event: Event) -> None:
        link = self.link
        frame = self._frame
        traffic = link.stats
        traffic["frames"] += 1
        traffic["bytes"] += self._length
        traffic["busy_time"] += self._wire_time
        obs = _obs.SESSION
        if obs is None and link.faults.inert and not link.watchers:
            # No fault model, nobody watching: no FaultPlan and no
            # receiver list per frame.  Same deliveries, same engine
            # events as the planned path would produce.
            delay = link.propagation_delay
            call_later = link.sim.call_later
            for peer in link._peers[self.sender]:
                if peer.accepts(frame):
                    call_later(delay, partial(peer.wire_deliver, frame))
        else:
            link._deliver_later(self.sender, frame, obs)
        if self._pull is not None:
            frame = self._pull()
        elif self._staged:
            frame = self._next_staged()
        elif self._blocked:
            # Nothing staged (no staging at all, ``capacity=0``): the
            # longest-blocked sender's frame goes on the wire itself.
            frame, admitted = self._blocked.popleft()
            admitted.succeed()
        else:
            frame = None
        if frame is None:
            self.busy = False
            self._frame = None
        elif self._fetch_delay:
            link.sim.call_later(self._fetch_delay, partial(self._wire, frame, len(frame)))
        else:
            self._wire(frame, len(frame))


class EthernetLink(Link):
    """10 Mb/s shared-medium Ethernet.

    One transmitter at a time (contention modelled as FIFO queueing for
    the medium, a fair simplification of CSMA/CD on a two-host segment).
    Per-frame overhead: 8-byte preamble, 4-byte FCS, minimum 64-byte
    frame, and the 9.6 µs inter-frame gap — this is what makes the
    standalone saturation figure ~9.5 Mb/s of user payload rather
    than 10.
    """

    SHARED_MEDIUM = True
    PREAMBLE = 8
    FCS = 4
    OVERHEAD = PREAMBLE + FCS
    MIN_FRAME = 64
    IFG = GAP = 9.6e-6
    MTU_DATA = 1500  # Payload after the 14-byte link header.

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float = 10e6,
        propagation_delay: float = 10e-6,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, bit_rate, propagation_delay, faults)

    @property
    def max_frame(self) -> int:
        return EthernetHeader.LENGTH + self.MTU_DATA

    def frame_time(self, length: int) -> float:
        """Wire occupancy for a frame of ``length`` bytes (ex. IFG)."""
        return (max(length, self.MIN_FRAME) + self.OVERHEAD) * 8 / self.bit_rate


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

    SHARED_MEDIUM = False

    def __init__(
        self,
        sim: Simulator,
        bit_rate: float = 10e6,
        propagation_delay: float = 2e-6,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, bit_rate, propagation_delay, faults)


class An1Link(Link):
    """100 Mb/s DEC SRC AN1 (Autonet) private segment.

    The paper used "a switchless, private segment": effectively a
    full-duplex point-to-point link, so each transmitter gets its own
    serialization timeline.  The frame-size limit is NOT the hardware's
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

    @property
    def max_frame(self) -> int:
        return An1Header.LENGTH + self.HARDWARE_MAX_DATA
