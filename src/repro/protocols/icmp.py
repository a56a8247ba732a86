"""Sans-io ICMP: echo request/reply, destination unreachable, and the
time-exceeded errors routers generate on TTL expiry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.headers import (
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    HeaderError,
    IcmpHeader,
)
from ..net.checksum import internet_checksum

#: Destination-unreachable codes (RFC 792).
UNREACH_NET = 0
UNREACH_HOST = 1
UNREACH_PROTOCOL = 2
UNREACH_PORT = 3

#: Time-exceeded codes (RFC 792).
TTL_EXPIRED_IN_TRANSIT = 0
FRAGMENT_REASSEMBLY_EXCEEDED = 1


@dataclass(frozen=True)
class EchoMessage:
    """A parsed ICMP echo request or reply."""

    is_request: bool
    ident: int
    seq: int
    payload: bytes


def encode_echo(
    is_request: bool, ident: int, seq: int, payload: bytes = b""
) -> bytes:
    """Build an echo request/reply with a correct checksum."""
    icmp_type = ICMP_ECHO_REQUEST if is_request else ICMP_ECHO_REPLY
    header = IcmpHeader(icmp_type=icmp_type, code=0, ident=ident, seq=seq)
    body = header.pack() + bytes(payload)
    checksum = internet_checksum(body)
    return body[:2] + checksum.to_bytes(2, "big") + body[4:]


def decode_echo(data: bytes, verify: bool = True) -> Optional[EchoMessage]:
    """Parse an echo message; None for other ICMP types or bad checksums."""
    try:
        header = IcmpHeader.unpack(data)
    except HeaderError:
        return None
    if header.icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
        return None
    if verify and internet_checksum(data) != 0:
        return None
    return EchoMessage(
        is_request=header.icmp_type == ICMP_ECHO_REQUEST,
        ident=header.ident,
        seq=header.seq,
        payload=bytes(data[IcmpHeader.LENGTH :]),
    )


def make_reply(request: EchoMessage) -> bytes:
    """Echo responder: turn a request into its reply bytes."""
    if not request.is_request:
        raise ValueError("can only reply to a request")
    return encode_echo(False, request.ident, request.seq, request.payload)


@dataclass(frozen=True)
class UnreachableMessage:
    """A parsed ICMP destination-unreachable message."""

    code: int
    #: The offending datagram's IP header + first 8 payload bytes.
    original: bytes


def encode_unreachable(code: int, original_packet: bytes) -> bytes:
    """Build a destination-unreachable message (RFC 792).

    ``original_packet`` is the full IP packet that could not be
    delivered; the message quotes its header plus eight bytes of its
    payload — enough for the sender to identify the flow (the ports).
    """
    quoted = bytes(original_packet[: 20 + 8])
    header = IcmpHeader(icmp_type=ICMP_DEST_UNREACHABLE, code=code)
    body = header.pack() + quoted
    checksum = internet_checksum(body)
    return body[:2] + checksum.to_bytes(2, "big") + body[4:]


def decode_unreachable(data: bytes, verify: bool = True) -> Optional[UnreachableMessage]:
    """Parse a destination-unreachable message; None for other types."""
    try:
        header = IcmpHeader.unpack(data)
    except HeaderError:
        return None
    if header.icmp_type != ICMP_DEST_UNREACHABLE:
        return None
    if verify and internet_checksum(data) != 0:
        return None
    return UnreachableMessage(
        code=header.code, original=bytes(data[IcmpHeader.LENGTH :])
    )


@dataclass(frozen=True)
class TimeExceededMessage:
    """A parsed ICMP time-exceeded message (routers: TTL hit zero)."""

    code: int
    #: The expired datagram's IP header + first 8 payload bytes.
    original: bytes


def encode_time_exceeded(
    original_packet: bytes, code: int = TTL_EXPIRED_IN_TRANSIT
) -> bytes:
    """Build a time-exceeded message quoting the expired packet
    (RFC 792): its IP header plus eight payload bytes, enough for the
    sender to identify the flow — what traceroute depends on."""
    quoted = bytes(original_packet[: 20 + 8])
    header = IcmpHeader(icmp_type=ICMP_TIME_EXCEEDED, code=code)
    body = header.pack() + quoted
    checksum = internet_checksum(body)
    return body[:2] + checksum.to_bytes(2, "big") + body[4:]


def decode_time_exceeded(
    data: bytes, verify: bool = True
) -> Optional[TimeExceededMessage]:
    """Parse a time-exceeded message; None for other types."""
    try:
        header = IcmpHeader.unpack(data)
    except HeaderError:
        return None
    if header.icmp_type != ICMP_TIME_EXCEEDED:
        return None
    if verify and internet_checksum(data) != 0:
        return None
    return TimeExceededMessage(
        code=header.code, original=bytes(data[IcmpHeader.LENGTH :])
    )


def is_icmp_error(payload: bytes) -> bool:
    """True when an ICMP payload is itself an error message — which a
    router must never answer with another ICMP error (RFC 1122)."""
    try:
        header = IcmpHeader.unpack(payload)
    except HeaderError:
        return False
    return header.icmp_type in (ICMP_DEST_UNREACHABLE, ICMP_TIME_EXCEEDED)
