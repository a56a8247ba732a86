"""A tcpdump-style wire tracer for simulated links.

Attach a :class:`WireTrace` to any link and every frame that crosses it
is decoded (link header, IP, TCP/UDP/ICMP/ARP) into a
:class:`TraceRecord` and optionally pretty-printed — the debugging tool
the paper's "ease of prototyping, debugging, and maintenance"
motivation calls for, usable because the wire carries real bytes.  The
same trace logs the fault injector's decision for every frame as a
:class:`FaultEvent`, which is the conformance campaign's fault log.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from .net.faults import FaultPlan
from .net.headers import (
    ARP_REQUEST,
    An1Header,
    ArpPacket,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    Ipv4Header,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    UdpHeader,
    ip_to_str,
    mac_to_str,
)
from .net.link import An1Link, Link
from .protocols.tcp.wire import decode_segment


@dataclass
class TraceRecord:
    """One decoded frame.  ``time`` is the instant a transmitter offered
    it to the wire, before serialization and fault injection."""

    time: float
    link_src: str
    link_dst: str
    summary: str
    protocol: str
    length: int
    #: Decoded headers, outermost first (for programmatic inspection).
    layers: list = field(default_factory=list)
    #: The captured frame bytes (what pcap export writes).
    raw: bytes = b""

    def __str__(self) -> str:
        return (
            f"{self.time * 1e3:10.3f} ms  {self.link_src} > {self.link_dst}"
            f"  {self.summary}  ({self.length} bytes)"
        )


@dataclass
class FaultEvent:
    """The fault injector's decision for one frame.  ``time`` is the
    instant the frame's turn on the wire ended, when its fate was drawn
    (at least its wire time after its :class:`TraceRecord`'s offer
    instant)."""

    time: float
    frame: bytes  # Pre-fault bytes, exactly as offered to the wire.
    plan: FaultPlan

    @property
    def duplicated(self) -> bool:
        return len(self.plan.deliveries) > 1


_TCP_FLAG_NAMES = (
    (0x02, "S"),
    (0x10, "."),
    (0x01, "F"),
    (0x04, "R"),
    (0x08, "P"),
)


def _tcp_flags(flags: int) -> str:
    text = "".join(name for bit, name in _TCP_FLAG_NAMES if flags & bit)
    return text or "none"


class WireTrace:
    """Observe every frame on a link.

    One of the link's ``watchers``: each frame is decoded when it is
    offered to the wire, so :attr:`records` show exactly what each
    sender did (before any fault injection), and the injector's
    decision for it lands in :attr:`fault_events` when its turn ends.
    Pass ``printer`` to also emit records live, ``capture=False`` to
    keep nothing.  Any number of traces may share a link and detach in
    any order.
    """

    def __init__(
        self,
        link: Link,
        printer: Optional[Callable[[str], None]] = None,
        capture: bool = True,
    ) -> None:
        self.link = link
        self.printer = printer
        self.capture = capture
        self.records: list[TraceRecord] = []
        self.fault_events: list[FaultEvent] = []
        link.watchers.append(self)

    def detach(self) -> None:
        """Stop tracing: leave the link's watchers (detaching twice is
        harmless)."""
        if self in self.link.watchers:
            self.link.watchers.remove(self)

    def offered(self, frame: bytes) -> None:
        record = self.decode(self.link.sim.now, frame)
        record.raw = bytes(frame)
        if self.capture:
            self.records.append(record)
        if self.printer is not None:
            self.printer(str(record))

    def planned(self, frame: bytes, plan: FaultPlan) -> None:
        if self.capture:
            self.fault_events.append(FaultEvent(self.link.sim.now, frame, plan))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, time: float, frame: bytes) -> TraceRecord:
        """Decode one frame into a :class:`TraceRecord`.

        Decoding never raises: a frame the decoders cannot parse (a
        truncated or bit-flipped capture) becomes a ``malformed`` record
        instead of aborting the simulation from inside ``transmit``.
        """
        try:
            return self._decode(time, frame)
        except HeaderError:
            return TraceRecord(
                time, "?", "?", "malformed frame", "malformed", len(frame)
            )
        except (ValueError, IndexError, struct.error) as exc:
            return TraceRecord(
                time,
                "?",
                "?",
                f"malformed frame ({type(exc).__name__})",
                "malformed",
                len(frame),
            )

    def _decode(self, time: float, frame: bytes) -> TraceRecord:
        if isinstance(self.link, An1Link):
            header = An1Header.unpack(frame)
            link_src, link_dst = f"an1:{header.src}", f"an1:{header.dst}"
            extra = (
                f" [bqi {header.bqi}"
                + (f" adv {header.adv_bqi}" if header.adv_bqi else "")
                + "]"
            )
            ethertype = header.ethertype
            payload = frame[An1Header.LENGTH :]
        else:
            header = EthernetHeader.unpack(frame)
            link_src = mac_to_str(header.src)[-5:]
            link_dst = mac_to_str(header.dst)[-5:]
            extra = ""
            ethertype = header.ethertype
            payload = frame[EthernetHeader.LENGTH :]

        record = TraceRecord(
            time, link_src, link_dst, "", "link", len(frame), layers=[header]
        )
        if ethertype == ETHERTYPE_ARP:
            self._decode_arp(record, payload)
        elif ethertype == ETHERTYPE_IP:
            self._decode_ip(record, payload)
        else:
            record.summary = f"ethertype {ethertype:#06x}"
            record.protocol = "other"
        record.summary += extra
        return record

    def _decode_arp(self, record: TraceRecord, payload: bytes) -> None:
        record.protocol = "arp"
        try:
            arp = ArpPacket.unpack(payload)
        except HeaderError:
            record.summary = "ARP (malformed)"
            return
        record.layers.append(arp)
        if arp.oper == ARP_REQUEST:
            record.summary = (
                f"ARP who-has {ip_to_str(arp.target_ip)}"
                f" tell {ip_to_str(arp.sender_ip)}"
            )
        else:
            record.summary = (
                f"ARP {ip_to_str(arp.sender_ip)} is-at "
                f"{mac_to_str(arp.sender_mac)}"
            )

    def _decode_ip(self, record: TraceRecord, payload: bytes) -> None:
        try:
            ip = Ipv4Header.unpack(payload, verify=False)
        except HeaderError:
            record.protocol = "ip"
            record.summary = "IP (malformed)"
            return
        record.layers.append(ip)
        body = payload[Ipv4Header.LENGTH : ip.total_length]
        src, dst = ip_to_str(ip.src), ip_to_str(ip.dst)
        if ip.frag_offset or ip.more_fragments:
            record.protocol = "ip-frag"
            record.summary = (
                f"IP fragment {src} > {dst} off={ip.frag_offset * 8}"
                f"{' MF' if ip.more_fragments else ''} id={ip.ident}"
            )
            return
        if ip.protocol == PROTO_TCP:
            self._decode_tcp(record, body, src, dst)
        elif ip.protocol == PROTO_UDP:
            self._decode_udp(record, body, src, dst)
        elif ip.protocol == PROTO_ICMP:
            self._decode_icmp(record, body, src, dst)
        else:
            record.protocol = "ip"
            record.summary = f"IP {src} > {dst} proto {ip.protocol}"

    def _decode_tcp(self, record: TraceRecord, body: bytes, src: str, dst: str) -> None:
        record.protocol = "tcp"
        try:
            tcp = decode_segment(body, 0, 0, verify=False)
        except HeaderError:
            record.summary = f"TCP {src} > {dst} (malformed)"
            return
        record.layers.append(tcp)
        data_len = len(tcp.payload)
        record.summary = (
            f"TCP {src}:{tcp.sport} > {dst}:{tcp.dport}"
            f" [{_tcp_flags(tcp.flags)}] seq={tcp.seq}"
            + (f" ack={tcp.ack}" if tcp.flags & 0x10 else "")
            + f" win={tcp.window} len={data_len}"
            + (f" mss={tcp.mss}" if tcp.mss else "")
        )

    def _decode_udp(self, record: TraceRecord, body: bytes, src: str, dst: str) -> None:
        record.protocol = "udp"
        try:
            udp = UdpHeader.unpack(body)
        except HeaderError:
            record.summary = f"UDP {src} > {dst} (malformed)"
            return
        record.layers.append(udp)
        record.summary = (
            f"UDP {src}:{udp.sport} > {dst}:{udp.dport}"
            f" len={udp.length - UdpHeader.LENGTH}"
        )

    def _decode_icmp(self, record: TraceRecord, body: bytes, src: str, dst: str) -> None:
        record.protocol = "icmp"
        try:
            icmp = IcmpHeader.unpack(body)
        except HeaderError:
            record.summary = f"ICMP {src} > {dst} (malformed)"
            return
        record.layers.append(icmp)
        kind = {0: "echo-reply", 8: "echo-request", 3: "dest-unreachable"}.get(
            icmp.icmp_type, f"type {icmp.icmp_type}"
        )
        record.summary = f"ICMP {src} > {dst} {kind} id={icmp.ident} seq={icmp.seq}"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------


    # ------------------------------------------------------------------
    # pcap export
    # ------------------------------------------------------------------

    @property
    def pcap_linktype(self) -> int:
        """DLT for this link: Ethernet, or DLT_USER0 for AN1 frames."""
        return LINKTYPE_AN1 if isinstance(self.link, An1Link) else LINKTYPE_ETHERNET

    def export_pcap(self, path) -> int:
        """Write all captured frames as a standard pcap file.

        Ethernet captures open directly in Wireshark/tcpdump (linktype
        1); AN1 captures use DLT_USER0 (147) since the header is
        simulator-local.  Returns the number of records written.
        """
        return write_pcap(path, self.records, linktype=self.pcap_linktype)


#: pcap global-header constants (libpcap classic format, v2.4).
PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
#: DLT_USER0 — private linktype for the simulator's AN1 frames.
LINKTYPE_AN1 = 147
_PCAP_GLOBAL = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")


def write_pcap(path, records, linktype: int = LINKTYPE_ETHERNET) -> int:
    """Write TraceRecords (or any objects with ``.time``/``.raw``) as a
    classic little-endian pcap v2.4 file.  Records without captured
    bytes are skipped.  Returns the count written."""
    written = 0
    with open(path, "wb") as fh:
        fh.write(_PCAP_GLOBAL.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, linktype))
        for record in records:
            raw = record.raw
            if not raw:
                continue
            ts_sec = int(record.time)
            ts_usec = int(round((record.time - ts_sec) * 1e6))
            if ts_usec >= 1_000_000:  # rounding carried into the next second
                ts_sec, ts_usec = ts_sec + 1, ts_usec - 1_000_000
            fh.write(_PCAP_RECORD.pack(ts_sec, ts_usec, len(raw), len(raw)))
            fh.write(raw)
            written += 1
    return written


def read_pcap(path) -> tuple[int, list[tuple[float, bytes]]]:
    """Read a classic pcap file back: ``(linktype, [(time, frame), ...])``.

    Understands both byte orders and nanosecond-magic variants — enough
    for round-trip tests and for re-decoding captures with
    :meth:`WireTrace.decode`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PCAP_GLOBAL.size:
        raise ValueError("truncated pcap: missing global header")
    magic = struct.unpack("<I", data[:4])[0]
    if magic in (0xA1B2C3D4, 0xA1B23C4D):
        endian = "<"
    elif magic in (0xD4C3B2A1, 0x4D3CB2A1):
        endian = ">"
    else:
        raise ValueError(f"not a pcap file (magic {magic:#010x})")
    nanos = struct.unpack(endian + "I", data[:4])[0] in (0xA1B23C4D, 0x4D3CB2A1)
    header = struct.Struct(endian + "IHHiIII")
    record = struct.Struct(endian + "IIII")
    linktype = header.unpack_from(data)[6]
    frames: list[tuple[float, bytes]] = []
    offset = header.size
    while offset < len(data):
        if offset + record.size > len(data):
            raise ValueError("truncated pcap: partial record header")
        ts_sec, ts_frac, incl_len, _orig = record.unpack_from(data, offset)
        offset += record.size
        if offset + incl_len > len(data):
            raise ValueError("truncated pcap: partial record")
        frame = data[offset : offset + incl_len]
        offset += incl_len
        scale = 1e-9 if nanos else 1e-6
        frames.append((ts_sec + ts_frac * scale, frame))
    return linktype, frames
