"""The Internet checksum (RFC 1071).

The real 16-bit one's-complement sum over real bytes.  TCP/IP/UDP wire
encoding uses it, corruption injection in the link layer really breaks
it, and the protocol input paths really discard segments that fail it.

The kernel is one C operation per buffer (the simulation checksums
every packet of every benchmark transfer).  One's-complement addition
of 16-bit words is addition modulo 0xFFFF, and 2**16 is 1 modulo
0xFFFF, so a buffer read as one big integer leaves the same residue as
the sum of its 16-bit digits.  Reading it *little*-endian gives every
byte the weight 256**(offset % 2) wherever the buffer ends — an odd
tail needs no padding and no length test — and yields the sum with its
two octets exchanged, which RFC 1071 §2(B) (byte-order independence)
says to swap back.  The one thing a residue cannot tell apart is the
two zeros: a one's-complement sum of anything non-zero is never 0x0000,
so a zero residue of non-zero data stands for 0xFFFF.  ``bytes``,
``bytearray`` and ``memoryview`` (of any item format) are all summed
in place.

:func:`checksum_parts` checksums a scatter-gather sequence of fragments
without joining them (RFC 1071 §2(C): a part starting at an odd offset
contributes the byte-swap of its own sum).
"""

from __future__ import annotations

import struct

_PSEUDO = struct.Struct("!IIBBH")


def _unswap(total: int) -> int:
    """The folded sum a little-endian integer ``total`` stands for: its
    residue with the two octets swapped back, a zero residue of a
    non-zero total being 0xFFFF."""
    swapped = total % 0xFFFF
    if swapped:
        return (swapped & 0xFF) << 8 | swapped >> 8
    return total and 0xFFFF


def internet_checksum(data) -> int:
    """RFC 1071 checksum of ``data``: 16-bit one's-complement of the sum.

    Returns the checksum value as an int in [0, 0xFFFF].  The returned
    value is what should be *stored* in a header whose checksum field was
    zero while summing.
    """
    return 0xFFFF - _unswap(int.from_bytes(data, "little"))


def checksum_parts(*parts) -> int:
    """RFC 1071 checksum of the concatenation of ``parts``, unjoined.

    Equivalent to ``internet_checksum(b"".join(parts))`` but never
    builds the joined buffer: each part is read where it lies, and a
    part that begins at an odd global offset is weighted by 256 — its
    sum byte-swapped (RFC 1071 §2(C)).  Parts are bytes-like objects.
    """
    total = 0
    shift = 0  # 8 while the running offset is odd.
    for part in parts:
        total += int.from_bytes(part, "little") << shift
        if len(part) & 1:
            shift ^= 8
    return 0xFFFF - _unswap(total)


def pseudo_header(src_ip: int, dst_ip: int, protocol: int, length: int) -> bytes:
    """IPv4 pseudo-header used by TCP and UDP checksums (RFC 793 §3.1)."""
    return _PSEUDO.pack(src_ip, dst_ip, 0, protocol, length)
