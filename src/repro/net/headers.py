"""Wire formats: real struct-packed headers for every protocol we speak.

Everything that crosses a simulated link is real bytes produced and
parsed by these classes — Ethernet, AN1 (with its buffer-queue-index
field), ARP, IPv4, UDP, and ICMP; TCP's header is the one codec in
``repro.protocols.tcp.wire``, and only its flag bits live here.
Checksums are genuine RFC 1071 sums; the fault-injection layer flips
real bits and receivers really reject the damage.

Every header follows the TCP codec's rule.  A header is a plain record
(a ``NamedTuple``) checked in the one place that can see each kind of
value:

* *Caller values* are checked by ``pack()``: ``struct`` refuses a field
  wider than its slot, and the refusal is raised as
  :class:`HeaderError`.  Only what ``struct`` cannot see is tested by
  hand: a MAC that is not six bytes, and an IPv4 fragment offset
  sharing its 16-bit slot with the flags.
* *Wire values* are checked by ``unpack()``, which reads the header
  with one ``unpack_from`` and builds its record from that tuple in one
  step (``Cls.build``, :func:`record`).  A slot read off the wire
  cannot overflow, so only what the protocol forbids is tested: short
  headers, IPv4 version, IHL, total length and checksum, ARP hardware
  types and operation, a UDP length below eight.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import NamedTuple

from .buf import as_wire_bytes


#: What a decode hands ``struct.unpack_from`` as it stands; anything
#: else (a :class:`~repro.net.buf.PacketBuffer`) is read through its
#: fused image, which the chain caches.
_FLAT = (bytes, memoryview, bytearray)


def record(cls):
    """Class decorator for a ``NamedTuple``: ``cls.build(fields)`` makes
    the record from one tuple of all its fields, in order, in C — no
    ``__new__`` frame and no profiled call, where the keyword
    constructor (kept for tests and cold code) runs both."""
    cls.build = partial(tuple.__new__, cls)
    return cls


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


def _refused(name: str, exc: struct.error) -> HeaderError:
    return HeaderError(f"{name} header field out of range: {exc}")


# ----------------------------------------------------------------------
# Link level: Ethernet and AN1
# ----------------------------------------------------------------------


@record
class EthernetHeader(NamedTuple):
    """Classic DIX Ethernet II header: dst, src, ethertype."""

    dst: bytes
    src: bytes
    ethertype: int

    LENGTH = 14
    _STRUCT = struct.Struct("!6s6sH")

    def pack(self) -> bytes:
        # ``6s`` pads or truncates silently: the one check struct cannot make.
        if len(self.dst) != 6 or len(self.src) != 6:
            raise HeaderError("MAC addresses must be 6 bytes")
        try:
            return self._STRUCT.pack(*self)
        except struct.error as exc:
            raise _refused("Ethernet", exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short Ethernet header ({len(data)} bytes)")
        return cls.build(cls._STRUCT.unpack_from(data))


@record
class An1Header(NamedTuple):
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

    def pack(self) -> bytes:
        try:
            return self._STRUCT.pack(*self)
        except struct.error as exc:
            raise _refused("AN1", exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "An1Header":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short AN1 header ({len(data)} bytes)")
        return cls.build(cls._STRUCT.unpack_from(data))


# ----------------------------------------------------------------------
# ARP
# ----------------------------------------------------------------------

ARP_REQUEST = 1
ARP_REPLY = 2


@record
class ArpPacket(NamedTuple):
    """ARP for IPv4-over-Ethernet (RFC 826)."""

    oper: int
    sender_mac: bytes
    sender_ip: int
    target_mac: bytes
    target_ip: int

    LENGTH = 28
    _STRUCT = struct.Struct("!HHBBH6sI6sI")

    def pack(self) -> bytes:
        if len(self.sender_mac) != 6 or len(self.target_mac) != 6:
            raise HeaderError("ARP MAC addresses must be 6 bytes")
        try:
            return self._STRUCT.pack(
                1,  # htype: Ethernet
                ETHERTYPE_IP,
                6,
                4,
                *self,
            )
        except struct.error as exc:
            raise _refused("ARP", exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "ArpPacket":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short ARP packet ({len(data)} bytes)")
        htype, ptype, hlen, plen, oper, sha, spa, tha, tpa = cls._STRUCT.unpack_from(data)
        if htype != 1 or ptype != ETHERTYPE_IP or hlen != 6 or plen != 4:
            raise HeaderError("unsupported ARP hardware/protocol types")
        if oper not in (ARP_REQUEST, ARP_REPLY):
            raise HeaderError(f"bad ARP operation {oper}")
        return cls.build((oper, sha, spa, tha, tpa))


# ----------------------------------------------------------------------
# IPv4
# ----------------------------------------------------------------------

IP_FLAG_MF = 0x1


@record
class Ipv4Header(NamedTuple):
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

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & IP_FLAG_MF)

    def pack(self) -> bytes:
        return pack_ipv4(*self)

    @classmethod
    def unpack(cls, data: bytes, verify: bool = True) -> "Ipv4Header":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        length = len(data)
        if length < cls.LENGTH:
            raise HeaderError(f"short IPv4 header ({length} bytes)")
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
        if verify:
            # A header-only parse (no packet behind it) passes ``verify=False``.
            if not cls.LENGTH <= total_length <= length:
                raise HeaderError(f"bad IPv4 total length {total_length}")
            # ``internet_checksum(header) == 0`` in one read: the header
            # as a little-endian integer sums to 0xFFFF exactly when it
            # is non-zero with zero residue mod 0xFFFF (net/checksum.py).
            total = int.from_bytes(data[: cls.LENGTH], "little")
            if not total or total % 0xFFFF:
                raise HeaderError("IPv4 header checksum mismatch")
        return cls.build((
            src, dst, protocol, total_length, ident,
            flags_frag >> 13, flags_frag & 0x1FFF, ttl, tos,
        ))


def pack_ipv4(
    src: int, dst: int, protocol: int, total_length: int, ident: int = 0,
    flags: int = 0, frag_offset: int = 0, ttl: int = 64, tos: int = 0,
) -> bytes:
    """The one IPv4 header packer, :class:`Ipv4Header`'s fields in its
    order: one pack, the checksum closed from the fields' word sum."""
    if not 0 <= frag_offset <= 0x1FFF:  # struct would take 16 bits.
        raise HeaderError(f"bad fragment offset {frag_offset}")
    flags_frag = flags << 13 | frag_offset
    total = 0x4500 + tos + total_length + ident + flags_frag + (ttl << 8 | protocol) + src + dst
    try:
        return Ipv4Header._STRUCT.pack(
            0x45, tos, total_length, ident, flags_frag, ttl, protocol,
            0xFFFF - (total % 0xFFFF or 0xFFFF), src, dst,
        )
    except struct.error as exc:
        raise _refused("IPv4", exc) from None


# ----------------------------------------------------------------------
# UDP
# ----------------------------------------------------------------------


@record
class UdpHeader(NamedTuple):
    """UDP header (RFC 768)."""

    sport: int
    dport: int
    length: int
    checksum: int = 0

    LENGTH = 8
    _STRUCT = struct.Struct("!HHHH")

    def pack(self) -> bytes:
        try:
            return self._STRUCT.pack(*self)
        except struct.error as exc:
            raise _refused("UDP", exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short UDP header ({len(data)} bytes)")
        fields = cls._STRUCT.unpack_from(data)
        if fields[2] < cls.LENGTH:
            raise HeaderError(f"bad UDP length {fields[2]}")
        return cls.build(fields)


# ----------------------------------------------------------------------
# TCP flag bits (the header codec is repro.protocols.tcp.wire)
# ----------------------------------------------------------------------

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20


# ----------------------------------------------------------------------
# ICMP
# ----------------------------------------------------------------------

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8
ICMP_DEST_UNREACHABLE = 3
ICMP_TIME_EXCEEDED = 11


@record
class IcmpHeader(NamedTuple):
    """ICMP header (RFC 792): type, code, and the echo identifier and
    sequence number, which error messages leave zero."""

    icmp_type: int
    code: int
    ident: int = 0
    seq: int = 0
    checksum: int = 0

    LENGTH = 8
    _STRUCT = struct.Struct("!BBHHH")

    def pack(self) -> bytes:
        try:
            return self._STRUCT.pack(
                self.icmp_type, self.code, self.checksum, self.ident, self.seq
            )
        except struct.error as exc:
            raise _refused("ICMP", exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "IcmpHeader":
        if type(data) not in _FLAT:
            data = as_wire_bytes(data)
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short ICMP header ({len(data)} bytes)")
        icmp_type, code, checksum, ident, seq = cls._STRUCT.unpack_from(data)
        return cls.build((icmp_type, code, ident, seq, checksum))
