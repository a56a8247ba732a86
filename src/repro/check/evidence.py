"""Evidence collection: everything the invariant checkers judge.

A conformance run produces four bodies of evidence.  The first two
come from the one :class:`~repro.trace.WireTrace` attached to the
faulted link:

* the **wire trace** — every frame offered to the link, decoded into
  :class:`WireSegment` records (captured *before* fault injection, so
  it shows what each sender actually did);
* the **fault log** — the trace's :class:`~repro.trace.FaultEvent` per
  frame, recording the injector's decision (drop/corrupt/duplicate/
  delay) and the exact post-fault bytes;
* the **socket transcripts** — the
  :class:`~repro.metrics.CheckedTransfer` records of
  :func:`~repro.metrics.run_transfers`: payload offered, bytes the
  receiving socket saw, endpoint machines, close reasons;
* the **counters** — fault-injector and link statistics, what the
  faulted link's NICs received, and netstat's drop table, for the
  checksum and conservation invariants.

Checkers consume a :class:`RunEvidence`; tests build one synthetically
(hand-written :class:`WireSegment` lists, stub machines) to prove each
checker fires, and :func:`collect_evidence` builds the real thing from
a live testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..counters import Counters
from ..metrics import run_transfers
from ..net.headers import (
    ETHERTYPE_IP,
    PROTO_TCP,
    An1Header,
    EthernetHeader,
    Ipv4Header,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    ip_to_str,
)
from ..net.link import An1Link
from ..netstat import drop_table
from ..trace import FaultEvent, WireTrace


@dataclass(frozen=True)
class WireSegment:
    """One TCP segment as captured on the faulted link (pre-fault)."""

    time: float
    src_ip: int
    dst_ip: int
    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    window: int
    data_len: int

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCP_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & TCP_ACK)

    @property
    def pure_ack(self) -> bool:
        """An ACK carrying nothing else — the dup-ack candidate shape."""
        return (
            self.has_ack
            and self.data_len == 0
            and not (self.flags & (TCP_SYN | TCP_FIN | TCP_RST))
        )

    @property
    def endpoint(self) -> tuple:
        return (self.src_ip, self.sport)

    @property
    def peer(self) -> tuple:
        return (self.dst_ip, self.dport)

    @property
    def conn_key(self) -> tuple:
        """Direction-independent connection identity."""
        a, b = self.endpoint, self.peer
        return (a, b) if a <= b else (b, a)

    def describe(self) -> str:
        return (
            f"{ip_to_str(self.src_ip)}:{self.sport} > "
            f"{ip_to_str(self.dst_ip)}:{self.dport} seq={self.seq} "
            f"ack={self.ack} len={self.data_len} flags={self.flags:#04x}"
        )


@dataclass
class RunEvidence:
    """Everything one conformance run produced, ready for judgement.

    Every field has a default so tests can construct partial evidence —
    a synthetic :class:`WireSegment` list is enough to exercise the
    trace-driven checkers, a stub machine with a ``transitions`` list is
    enough for the state checker.
    """

    segments: list = field(default_factory=list)  # WireSegment, time order
    transfers: list = field(default_factory=list)  # CheckedTransfer
    machines: list = field(default_factory=list)  # (name, TcpMachine)
    fault_events: list = field(default_factory=list)  # trace.FaultEvent
    injector_stats: dict = field(
        default_factory=lambda: {
            "dropped": 0, "corrupted": 0, "duplicated": 0, "delayed": 0,
        }
    )
    link_stats: dict = field(default_factory=dict)
    #: Frames the faulted link's NICs received (None: not measured).
    arrivals: Optional[int] = None
    #: :func:`repro.netstat.drop_table` rows at the end of the run
    #: (None: not measured).
    drops: Optional[list] = None
    min_rto: float = 0.5
    an1: bool = False
    #: Raw trace records (kept for failure dumps; not used by checkers).
    trace_records: list = field(default_factory=list)


def segments_from_trace(records, an1: bool = False) -> list[WireSegment]:
    """Extract :class:`WireSegment` evidence from decoded trace records.

    Only well-formed TCP records qualify; ``malformed`` and non-TCP
    records carry no sequence-space evidence.
    """
    segments = []
    for record in records:
        if record.protocol != "tcp" or len(record.layers) < 3:
            continue
        ip = record.layers[1]
        tcp = record.layers[2]
        if not isinstance(ip, Ipv4Header):
            continue
        segments.append(
            WireSegment(
                time=record.time,
                src_ip=ip.src,
                dst_ip=ip.dst,
                sport=tcp.sport,
                dport=tcp.dport,
                seq=tcp.seq,
                ack=tcp.ack,
                flags=tcp.flags,
                window=tcp.window,
                data_len=len(tcp.payload),
            )
        )
    return segments


def machines_from_transfers(transfers) -> list:
    """Name every endpoint machine the transfers touched."""
    machines = []
    for t in transfers:
        if t.client_machine is not None:
            machines.append((f"client-{t.index}", t.client_machine))
        if t.server_machine is not None:
            machines.append((f"server-{t.index}", t.server_machine))
    return machines


def collect_evidence(bed, **transfer_kwargs) -> RunEvidence:
    """Trace ``bed``'s faulted link, run the transfers, and assemble the
    full :class:`RunEvidence`."""
    link = bed.faulted_link
    trace = WireTrace(link)
    try:
        transfers = run_transfers(bed, **transfer_kwargs)
    finally:
        trace.detach()

    an1 = isinstance(link, An1Link)
    return RunEvidence(
        segments=segments_from_trace(trace.records, an1=an1),
        transfers=transfers,
        machines=machines_from_transfers(transfers),
        fault_events=trace.fault_events,
        injector_stats=Counters(link.faults.stats),
        link_stats=Counters(link.stats),
        arrivals=sum(
            nic.stats["rx_frames"] + nic.stats["rx_dropped_no_buffer"] + nic.stats["rx_runt"]
            for nic in link.nics
        ),
        drops=drop_table(bed),
        min_rto=bed.config.min_rto,
        an1=an1,
        trace_records=list(trace.records),
    )


def duplicated_ack_segments(fault_events, an1: bool = False) -> list[WireSegment]:
    """Pure-ACK copies the injector *added* to the wire.

    The trace captures each frame once, pre-fault; a duplicated ACK is
    delivered twice, so the sender may conformantly fast-retransmit
    after seeing fewer distinct ACK captures than the threshold.  The
    retransmission checker folds these extra copies back in.  Corrupted
    duplicates are skipped — the receiver rejects both copies.
    """
    extras = []
    for event in fault_events:
        if len(event.plan.deliveries) <= 1 or event.plan.corrupted:
            continue
        try:
            decoded = strict_decode(event.frame, an1=an1)
        except (ValueError, IndexError):
            continue
        if decoded is None:
            continue
        segment = decoded["segment"]
        if segment.payload or not segment.has_ack or segment.syn \
                or segment.fin or segment.rst:
            continue
        extras.append(
            WireSegment(
                time=event.time,
                src_ip=decoded["src_ip"],
                dst_ip=decoded["dst_ip"],
                sport=segment.sport,
                dport=segment.dport,
                seq=segment.seq,
                ack=segment.ack,
                flags=segment.flags,
                window=segment.window,
                data_len=0,
            )
        )
    return extras


def strict_decode(frame: bytes, an1: bool = False) -> Optional[dict]:
    """Decode a frame exactly as a receiving host would: link header,
    then IP with header-checksum verification, then TCP with
    pseudo-header checksum verification.

    Returns ``None`` for non-TCP traffic (no TCP conformance claim to
    make), a dict of addressing + the decoded
    :class:`~repro.protocols.tcp.wire.Segment` on success, and *raises*
    (``HeaderError`` / ``ChecksumError``) when any layer rejects the
    frame — which is the outcome the checksum invariant demands for
    corrupted frames.
    """
    from ..net.buf import as_wire_bytes
    from ..protocols.tcp.wire import decode_segment

    frame = as_wire_bytes(frame)
    if an1:
        link_header = An1Header.unpack(frame)
        link_dst = link_header.dst
        payload = frame[An1Header.LENGTH:]
    else:
        link_header = EthernetHeader.unpack(frame)
        link_dst = link_header.dst
        payload = frame[EthernetHeader.LENGTH:]
    if link_header.ethertype != ETHERTYPE_IP:
        return None
    ip = Ipv4Header.unpack(payload, verify=True)
    if ip.protocol != PROTO_TCP:
        return None
    body = payload[Ipv4Header.LENGTH:ip.total_length]
    segment = decode_segment(body, ip.src, ip.dst, verify=True)
    return {
        "link_dst": link_dst,
        "src_ip": ip.src,
        "dst_ip": ip.dst,
        "sport": segment.sport,
        "dport": segment.dport,
        "segment": segment,
    }
