"""Wire formats: real struct-packed headers for every protocol we speak.

Everything that crosses a simulated link is real bytes produced and
parsed by these classes — Ethernet, AN1 (with its buffer-queue-index
field), ARP, IPv4, UDP, TCP, and ICMP.  Checksums are genuine RFC 1071
sums; the fault-injection layer flips real bits and receivers really
reject the damage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from .checksum import internet_checksum


_FLAT = (bytes, memoryview, bytearray)


def _octets(data):
    """Normalize ``data`` for ``struct.unpack_from``.

    bytes/bytearray/memoryview pass through; a scatter-gather chain
    (anything else with ``tobytes``, e.g. :class:`~repro.net.buf.PacketBuffer`)
    is fused — its flat image is cached, so repeated unpacks stay cheap.
    """
    if type(data) in _FLAT:
        return data
    tobytes = getattr(data, "tobytes", None)
    return tobytes() if tobytes is not None else bytes(data)


# ----------------------------------------------------------------------
# Address helpers
# ----------------------------------------------------------------------

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

BROADCAST_MAC = b"\xff" * 6


def mac_to_str(mac: bytes) -> str:
    """``b'\\x02\\x00...'`` → ``'02:00:...'``."""
    return ":".join(f"{b:02x}" for b in mac)


def str_to_mac(text: str) -> bytes:
    """``'02:00:00:00:00:01'`` → 6 bytes."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC address {text!r}")
    return bytes(int(p, 16) for p in parts)


def ip_to_str(ip: int) -> str:
    """32-bit int → dotted quad."""
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def str_to_ip(text: str) -> int:
    """Dotted quad → 32-bit int."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IP address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IP address {text!r}")
        value = (value << 8) | octet
    return value


class HeaderError(ValueError):
    """A header failed to parse or validate."""


# ----------------------------------------------------------------------
# Link level: Ethernet and AN1
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EthernetHeader:
    """Classic DIX Ethernet II header: dst, src, ethertype."""

    dst: bytes
    src: bytes
    ethertype: int

    LENGTH = 14
    _STRUCT = struct.Struct("!6s6sH")

    def __post_init__(self) -> None:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise HeaderError("MAC addresses must be 6 bytes")
        if not 0 <= self.ethertype <= 0xFFFF:
            raise HeaderError(f"bad ethertype {self.ethertype:#x}")

    def pack(self) -> bytes:
        return self._STRUCT.pack(self.dst, self.src, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short Ethernet header ({len(data)} bytes)")
        dst, src, ethertype = cls._STRUCT.unpack_from(data)
        return cls(dst, src, ethertype)


@dataclass(frozen=True)
class An1Header:
    """DEC SRC AN1 link header.

    The field that matters to the paper is ``bqi``, the *buffer queue
    index*: "a single field in the link-level packet header provides a
    level of indirection into a table kept in the controller" — the
    receiving controller DMAs the packet into the host buffer ring that
    the BQI names.  BQI zero is the default and refers to protected
    kernel memory.

    Station addresses are 16-bit (Autonet addressed
    point-to-point switches); ``ethertype`` selects the encapsulated
    protocol exactly as on Ethernet.

    ``adv_bqi`` models the paper's BQI-exchange trick: the registry
    server "inserts the BQI into an unused field in the AN1 link header
    which is extracted by the remote server" during the three-way
    handshake — so each side learns which BQI to stamp on subsequent
    packets for this connection.
    """

    dst: int
    src: int
    ethertype: int
    bqi: int = 0
    adv_bqi: int = 0

    LENGTH = 10
    _STRUCT = struct.Struct("!HHHHH")
    MAX_BQI = 0xFFFF

    def __post_init__(self) -> None:
        for name, value in (
            ("dst", self.dst),
            ("src", self.src),
            ("ethertype", self.ethertype),
            ("bqi", self.bqi),
            ("adv_bqi", self.adv_bqi),
        ):
            if not 0 <= value <= 0xFFFF:
                raise HeaderError(f"bad AN1 {name} {value:#x}")

    def pack(self) -> bytes:
        return self._STRUCT.pack(
            self.dst, self.src, self.ethertype, self.bqi, self.adv_bqi
        )

    @classmethod
    def unpack(cls, data: bytes) -> "An1Header":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short AN1 header ({len(data)} bytes)")
        dst, src, ethertype, bqi, adv_bqi = cls._STRUCT.unpack_from(data)
        return cls(dst, src, ethertype, bqi, adv_bqi)

    def with_bqi(self, bqi: int) -> "An1Header":
        """Copy with a different buffer queue index."""
        return An1Header(self.dst, self.src, self.ethertype, bqi, self.adv_bqi)


# ----------------------------------------------------------------------
# ARP
# ----------------------------------------------------------------------

ARP_REQUEST = 1
ARP_REPLY = 2


@dataclass(frozen=True)
class ArpPacket:
    """ARP for IPv4-over-Ethernet (RFC 826)."""

    oper: int
    sender_mac: bytes
    sender_ip: int
    target_mac: bytes
    target_ip: int

    LENGTH = 28
    _STRUCT = struct.Struct("!HHBBH6sI6sI")

    def __post_init__(self) -> None:
        if self.oper not in (ARP_REQUEST, ARP_REPLY):
            raise HeaderError(f"bad ARP operation {self.oper}")
        if len(self.sender_mac) != 6 or len(self.target_mac) != 6:
            raise HeaderError("ARP MAC addresses must be 6 bytes")

    def pack(self) -> bytes:
        return self._STRUCT.pack(
            1,  # htype: Ethernet
            ETHERTYPE_IP,
            6,
            4,
            self.oper,
            self.sender_mac,
            self.sender_ip,
            self.target_mac,
            self.target_ip,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ArpPacket":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short ARP packet ({len(data)} bytes)")
        htype, ptype, hlen, plen, oper, sha, spa, tha, tpa = cls._STRUCT.unpack_from(data)
        if htype != 1 or ptype != ETHERTYPE_IP or hlen != 6 or plen != 4:
            raise HeaderError("unsupported ARP hardware/protocol types")
        return cls(oper, sha, spa, tha, tpa)


# ----------------------------------------------------------------------
# IPv4
# ----------------------------------------------------------------------

IP_FLAG_DF = 0x2
IP_FLAG_MF = 0x1


@dataclass(frozen=True)
class Ipv4Header:
    """IPv4 header without options (RFC 791)."""

    src: int
    dst: int
    protocol: int
    total_length: int
    ident: int = 0
    flags: int = 0
    frag_offset: int = 0  # In 8-byte units.
    ttl: int = 64
    tos: int = 0

    LENGTH = 20
    _STRUCT = struct.Struct("!BBHHHBBHII")

    def __post_init__(self) -> None:
        if not 0 <= self.total_length <= 0xFFFF:
            raise HeaderError(f"bad total length {self.total_length}")
        if not 0 <= self.frag_offset <= 0x1FFF:
            raise HeaderError(f"bad fragment offset {self.frag_offset}")
        if not 0 <= self.ident <= 0xFFFF:
            raise HeaderError(f"bad ident {self.ident}")
        if not 0 <= self.ttl <= 0xFF:
            raise HeaderError(f"bad TTL {self.ttl}")

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & IP_FLAG_MF)

    @property
    def dont_fragment(self) -> bool:
        return bool(self.flags & IP_FLAG_DF)

    def pack(self) -> bytes:
        fields = [
            (4 << 4) | 5,  # Version 4, IHL 5 words.
            self.tos,
            self.total_length,
            self.ident,
            (self.flags << 13) | self.frag_offset,
            self.ttl,
            self.protocol,
            0,  # Checksum placeholder.
            self.src,
            self.dst,
        ]
        fields[7] = internet_checksum(self._STRUCT.pack(*fields))
        return self._STRUCT.pack(*fields)

    @classmethod
    def unpack(cls, data: bytes, verify: bool = True) -> "Ipv4Header":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short IPv4 header ({len(data)} bytes)")
        (
            ver_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = cls._STRUCT.unpack_from(data)
        version = ver_ihl >> 4
        ihl = ver_ihl & 0xF
        if version != 4:
            raise HeaderError(f"not IPv4 (version={version})")
        if ihl != 5:
            raise HeaderError(f"IPv4 options unsupported (ihl={ihl})")
        if verify and internet_checksum(data[: cls.LENGTH]) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            total_length=total_length,
            ident=ident,
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
            ttl=ttl,
            tos=tos,
        )


# ----------------------------------------------------------------------
# UDP
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UdpHeader:
    """UDP header (RFC 768)."""

    sport: int
    dport: int
    length: int
    checksum: int = 0

    LENGTH = 8
    _STRUCT = struct.Struct("!HHHH")

    def __post_init__(self) -> None:
        for name, value in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= value <= 0xFFFF:
                raise HeaderError(f"bad UDP {name} {value}")
        if self.length < self.LENGTH:
            raise HeaderError(f"bad UDP length {self.length}")

    def pack(self) -> bytes:
        return self._STRUCT.pack(self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short UDP header ({len(data)} bytes)")
        sport, dport, length, checksum = cls._STRUCT.unpack_from(data)
        return cls(sport, dport, length, checksum)


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

TCPOPT_END = 0
TCPOPT_NOP = 1
TCPOPT_MSS = 2


@dataclass(frozen=True)
class TcpHeader:
    """TCP header (RFC 793) with MSS-option support."""

    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int = 0
    urgent: int = 0
    mss: Optional[int] = None  # MSS option, SYN segments only.

    LENGTH = 20
    _STRUCT = struct.Struct("!HHIIBBHHH")

    def __post_init__(self) -> None:
        for name, value in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= value <= 0xFFFF:
                raise HeaderError(f"bad TCP {name} {value}")
        for name, value in (("seq", self.seq), ("ack", self.ack)):
            if not 0 <= value <= 0xFFFFFFFF:
                raise HeaderError(f"bad TCP {name} {value}")
        if not 0 <= self.window <= 0xFFFF:
            raise HeaderError(f"bad TCP window {self.window}")
        if self.mss is not None and not 0 < self.mss <= 0xFFFF:
            raise HeaderError(f"bad TCP MSS {self.mss}")

    @property
    def header_length(self) -> int:
        """Header length in bytes including options."""
        return self.LENGTH + (4 if self.mss is not None else 0)

    def _flag(self, bit: int) -> bool:
        return bool(self.flags & bit)

    @property
    def syn(self) -> bool:
        return self._flag(TCP_SYN)

    @property
    def ack_flag(self) -> bool:
        return self._flag(TCP_ACK)

    @property
    def fin(self) -> bool:
        return self._flag(TCP_FIN)

    @property
    def rst(self) -> bool:
        return self._flag(TCP_RST)

    @property
    def psh(self) -> bool:
        return self._flag(TCP_PSH)

    def pack(self) -> bytes:
        options = b""
        if self.mss is not None:
            options = struct.pack("!BBH", TCPOPT_MSS, 4, self.mss)
        offset_words = (self.LENGTH + len(options)) // 4
        return (
            self._STRUCT.pack(
                self.sport,
                self.dport,
                self.seq,
                self.ack,
                offset_words << 4,
                self.flags,
                self.window,
                self.checksum,
                self.urgent,
            )
            + options
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short TCP header ({len(data)} bytes)")
        (
            sport,
            dport,
            seq,
            ack,
            offset_byte,
            flags,
            window,
            checksum,
            urgent,
        ) = cls._STRUCT.unpack_from(data)
        header_len = (offset_byte >> 4) * 4
        if header_len < cls.LENGTH or header_len > len(data):
            raise HeaderError(f"bad TCP data offset {header_len}")
        mss = cls._parse_mss(data[cls.LENGTH : header_len])
        return cls(sport, dport, seq, ack, flags, window, checksum, urgent, mss)

    @staticmethod
    def _parse_mss(options: bytes) -> Optional[int]:
        i = 0
        while i < len(options):
            kind = options[i]
            if kind == TCPOPT_END:
                break
            if kind == TCPOPT_NOP:
                i += 1
                continue
            if i + 1 >= len(options):
                raise HeaderError("truncated TCP option")
            length = options[i + 1]
            if length < 2 or i + length > len(options):
                raise HeaderError("bad TCP option length")
            if kind == TCPOPT_MSS:
                if length != 4:
                    raise HeaderError("bad MSS option length")
                return struct.unpack_from("!H", options, i + 2)[0]
            i += length
        return None


# ----------------------------------------------------------------------
# ICMP
# ----------------------------------------------------------------------

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8
ICMP_DEST_UNREACHABLE = 3
ICMP_TIME_EXCEEDED = 11


@dataclass(frozen=True)
class IcmpHeader:
    """ICMP header for echo request/reply (RFC 792)."""

    icmp_type: int
    code: int
    ident: int = 0
    seq: int = 0
    checksum: int = 0

    LENGTH = 8
    _STRUCT = struct.Struct("!BBHHH")

    def pack(self) -> bytes:
        return self._STRUCT.pack(
            self.icmp_type, self.code, self.checksum, self.ident, self.seq
        )

    @classmethod
    def unpack(cls, data: bytes) -> "IcmpHeader":
        data = _octets(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short ICMP header ({len(data)} bytes)")
        icmp_type, code, checksum, ident, seq = cls._STRUCT.unpack_from(data)
        return cls(icmp_type, code, ident, seq, checksum)
