"""Tests for the RFC 1071 Internet checksum."""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, transport_sum


def verify_checksum(data) -> bool:
    """RFC 1071: a datagram summed *with* a correct checksum field in
    place yields 0xFFFF, whose complement is zero."""
    return internet_checksum(data) == 0


def test_known_vector_rfc1071():
    # Example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    # Sum = 0x2ddf0 -> fold: 0xddf2 -> complement: 0x220d.
    assert internet_checksum(data) == 0x220D


def test_empty_data():
    assert internet_checksum(b"") == 0xFFFF


def test_odd_length_padded():
    # Odd data is padded with a zero byte on the right.
    assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")


def test_verify_accepts_correct_checksum():
    data = bytearray(b"\x45\x00\x00\x28" + bytes(16))
    checksum = internet_checksum(bytes(data))
    data[10:12] = checksum.to_bytes(2, "big")
    assert verify_checksum(bytes(data))


def test_verify_rejects_single_bit_flip():
    data = bytearray(b"hello world, checksum me")
    checksum = internet_checksum(bytes(data))
    packet = bytearray(bytes(data) + checksum.to_bytes(2, "big"))
    assert verify_checksum(bytes(packet))
    packet[3] ^= 0x10
    assert not verify_checksum(bytes(packet))


@given(data=st.binary(max_size=512))
def test_checksum_in_range(data):
    value = internet_checksum(data)
    assert 0 <= value <= 0xFFFF


even_binary = st.binary(min_size=2, max_size=256).map(
    lambda b: b if len(b) % 2 == 0 else b + b"\x00"
)


@given(data=even_binary)
def test_embedding_checksum_verifies(data):
    # Append the checksum (16-bit aligned); the whole must verify.
    checksum = internet_checksum(data)
    assert verify_checksum(data + checksum.to_bytes(2, "big"))


@given(
    data=even_binary,
    bit=st.integers(min_value=0, max_value=1023),
)
def test_single_bit_flips_detected(data, bit):
    checksum = internet_checksum(data)
    packet = bytearray(data + checksum.to_bytes(2, "big"))
    index = (bit // 8) % len(packet)
    packet[index] ^= 1 << (bit % 8)
    assert not verify_checksum(bytes(packet))


@given(
    src=st.integers(0, 0xFFFFFFFF),
    dst=st.integers(0, 0xFFFFFFFF),
    protocol=st.integers(1, 0xFF),
    length=st.integers(0, 0xFFFF),
    data=st.binary(max_size=64),
)
def test_transport_sum_closes_to_the_pseudo_header_checksum(src, dst, protocol, length, data):
    """The sum closes to the checksum of the pseudo-header's RFC 793
    layout (two addresses, a zero octet, the protocol, the length)
    followed by ``data``."""
    pseudo = struct.pack("!IIBBH", src, dst, 0, protocol, length)
    assert pseudo[8:10] == bytes([0, protocol]) and len(pseudo) == 12
    total = transport_sum(src, dst, protocol, length, data)
    assert 0xFFFF - (total % 0xFFFF or 0xFFFF) == internet_checksum(pseudo + data)
