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


#: Bytes of the offending datagram an error message quotes: its IP
#: header plus eight payload bytes, enough for the sender to identify
#: the flow (the ports) — what traceroute depends on.
_QUOTED = 20 + 8


def _encode(icmp_type: int, code: int, ident: int, seq: int, body) -> bytes:
    """One ICMP message with a correct checksum: the one encoder."""
    message = IcmpHeader(icmp_type, code, ident, seq).pack() + bytes(body)
    checksum = internet_checksum(message)
    return message[:2] + checksum.to_bytes(2, "big") + message[4:]


def _decode(data, types: tuple, verify: bool) -> Optional[IcmpHeader]:
    """``data``'s header if its type is one of ``types`` (and, with
    ``verify``, its checksum holds); None otherwise: the one decoder."""
    try:
        header = IcmpHeader.unpack(data)
    except HeaderError:
        return None
    if header.icmp_type not in types:
        return None
    if verify and internet_checksum(data) != 0:
        return None
    return header


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
    return _encode(icmp_type, 0, ident, seq, payload)


def decode_echo(data: bytes, verify: bool = True) -> Optional[EchoMessage]:
    """Parse an echo message; None for other ICMP types or bad checksums."""
    header = _decode(data, (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY), verify)
    if header is None:
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
class ErrorMessage:
    """A parsed ICMP error: destination unreachable or time exceeded."""

    code: int
    #: The offending datagram's IP header + first 8 payload bytes.
    original: bytes


def encode_unreachable(code: int, original_packet: bytes) -> bytes:
    """Build a destination-unreachable message (RFC 792) quoting
    ``original_packet``, the full IP packet that could not be delivered."""
    return _encode(ICMP_DEST_UNREACHABLE, code, 0, 0, original_packet[:_QUOTED])


def decode_unreachable(data: bytes, verify: bool = True) -> Optional[ErrorMessage]:
    """Parse a destination-unreachable message; None for other types."""
    header = _decode(data, (ICMP_DEST_UNREACHABLE,), verify)
    if header is None:
        return None
    return ErrorMessage(header.code, bytes(data[IcmpHeader.LENGTH :]))


def encode_time_exceeded(
    original_packet: bytes, code: int = TTL_EXPIRED_IN_TRANSIT
) -> bytes:
    """Build a time-exceeded message (RFC 792; routers: TTL hit zero)
    quoting the expired packet."""
    return _encode(ICMP_TIME_EXCEEDED, code, 0, 0, original_packet[:_QUOTED])


def decode_time_exceeded(data: bytes, verify: bool = True) -> Optional[ErrorMessage]:
    """Parse a time-exceeded message; None for other types."""
    header = _decode(data, (ICMP_TIME_EXCEEDED,), verify)
    if header is None:
        return None
    return ErrorMessage(header.code, bytes(data[IcmpHeader.LENGTH :]))


def is_icmp_error(payload: bytes) -> bool:
    """True when an ICMP payload is itself an error message — which a
    router must never answer with another ICMP error (RFC 1122)."""
    errors = (ICMP_DEST_UNREACHABLE, ICMP_TIME_EXCEEDED)
    return _decode(payload, errors, verify=False) is not None
