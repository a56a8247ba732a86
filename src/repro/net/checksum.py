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

:func:`internet_checksum` sums a scatter-gather sequence of fragments
without joining them.

A header packer sums its own fields (a 32-bit field adds itself: its
halves sum to it modulo 0xFFFF) and stores ``0xFFFF - (total % 0xFFFF
or 0xFFFF)``, a header never summing to zero; :func:`transport_sum`
adds a TCP or UDP segment's pseudo-header and bytes.
"""

from __future__ import annotations


def _unswap(total: int) -> int:
    """The folded sum a little-endian integer ``total`` stands for: its
    residue with the two octets swapped back, a zero residue of a
    non-zero total being 0xFFFF."""
    swapped = total % 0xFFFF
    if swapped:
        return (swapped & 0xFF) << 8 | swapped >> 8
    return total and 0xFFFF


def internet_checksum(*parts) -> int:
    """RFC 1071 checksum of the concatenation of ``parts`` (bytes-like
    objects): the 16-bit one's complement of their sum, the value a
    header summed with a zero checksum field stores.

    The parts are never joined: each is read where it lies, and one that
    begins at an odd offset of the whole is weighted by 256 — its sum
    byte-swapped (RFC 1071 §2(C)).
    """
    total = 0
    shift = 0  # 8 while the running offset is odd.
    for part in parts:
        total += int.from_bytes(part, "little") << shift
        if len(part) & 1:
            shift ^= 8
    return 0xFFFF - _unswap(total)


def transport_sum(src_ip: int, dst_ip: int, protocol: int, length: int, data) -> int:
    """The word sum, unfolded, of the IPv4 pseudo-header (RFC 793 §3.1)
    of a ``length``-octet segment and of ``data`` at an even offset in
    it: ``data`` read little-endian and times 256, which swaps the
    residue's octets back.  An intact segment's whole sum has residue 0.
    """
    return src_ip + dst_ip + protocol + length + (int.from_bytes(data, "little") << 8)
