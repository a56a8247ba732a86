"""The big-integer checksum kernel against the ``array`` word sum it
replaced, and the closed-form TTL rewrite against a full re-pack.

``repro.net.checksum`` reads a buffer as one little-endian integer and
takes its residue modulo 0xFFFF; :mod:`.legacy_checksum` sums 16-bit
words.  They must agree on every input a wire can carry — including
the places a residue is blind: odd tails, views that start mid-buffer,
and the two one's-complement zeros.
"""

import array
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.buf import PacketBuffer, as_wire_bytes
from repro.net.checksum import (
    checksum_parts,
    fold,
    incremental_update,
    internet_checksum,
    sum16,
)
from repro.net.headers import Ipv4Header
from repro.protocols.ip import IpError, forwarded_copy

from . import legacy_checksum as legacy


def _shapes(data: bytes):
    """``data`` as every bytes-like shape the datapath hands the kernel:
    the three flat types, and a view that starts and ends inside a
    larger buffer (at an odd and at an even offset)."""
    yield data
    yield bytearray(data)
    yield memoryview(data)
    yield memoryview(b"\xa5" + data + b"\x5a\x5a")[1 : 1 + len(data)]
    yield memoryview(bytearray(b"\xa5\xa5" + data + b"\x5a"))[2 : 2 + len(data)]


def _assert_kernel_matches(data: bytes) -> None:
    want_sum = legacy.fold(legacy.sum16(data))
    want = legacy.internet_checksum(data)
    for shape in _shapes(data):
        assert sum16(shape) == want_sum
        assert internet_checksum(shape) == want
        assert checksum_parts(shape) == want


@given(data=st.binary(max_size=600))
def test_kernel_matches_word_sum(data):
    _assert_kernel_matches(data)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 19, 20, 1459, 1460, 4096, 65535])
@pytest.mark.parametrize("fill", ["zero", "ones", "random"])
def test_kernel_at_boundary_lengths_and_the_two_zeros(length, fill):
    """All-zero data sums to 0x0000 and nothing else does: a zero
    residue of non-zero data (all-0xFF is the extreme) is 0xFFFF."""
    if fill == "zero":
        data = bytes(length)
    elif fill == "ones":
        data = b"\xff" * length
    else:
        data = random.Random(length).randbytes(length)
    _assert_kernel_matches(data)
    if fill == "zero":
        assert sum16(data) == 0 and internet_checksum(data) == 0xFFFF
    elif fill == "ones" and length and length % 2 == 0:
        assert sum16(data) == 0xFFFF and internet_checksum(data) == 0


@given(words=st.lists(st.integers(0, 0xFFFF), max_size=40))
def test_kernel_reads_any_item_format_as_raw_octets(words):
    """A memoryview whose items are not bytes (``len`` counts items, not
    octets) is summed over its raw memory, as the word sum did."""
    view = memoryview(array.array("H", words))
    raw = view.tobytes()
    assert sum16(view) == legacy.fold(legacy.sum16(raw))
    assert internet_checksum(view) == legacy.internet_checksum(raw)


@given(total=st.integers(0, 1 << 40))
def test_fold_matches_carry_loop(total):
    assert fold(total) == legacy.fold(total)


@given(
    data=st.binary(max_size=400),
    cuts=st.lists(st.integers(0, 400), max_size=5),
    nest=st.booleans(),
)
def test_checksum_parts_matches_word_sum_of_the_join(data, cuts, nest):
    """Parts cut anywhere — so most begin at odd offsets — in mixed
    bytes-like types, empty parts included, optionally as a chain."""
    bounds = [0] + sorted(min(c, len(data)) for c in cuts) + [len(data)]
    parts = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    parts = [
        memoryview(p) if i % 3 == 1 else bytearray(p) if i % 3 == 2 else p
        for i, p in enumerate(parts)
    ]
    if nest and len(parts) > 1:
        parts = [parts[0], PacketBuffer(parts[1:])]
    assert checksum_parts(*parts) == legacy.internet_checksum(data)


@given(
    data=st.binary(min_size=4, max_size=64).map(lambda b: b[: len(b) & ~1]),
    new=st.binary(min_size=4, max_size=4),
    width=st.sampled_from([2, 4]),
    where=st.integers(0, 31),
)
def test_incremental_update_matches_word_sum_resum(data, new, width, where):
    offset = 2 * where % (len(data) - width + 2)
    patched = bytearray(data)
    patched[offset : offset + width] = new[:width]
    got = incremental_update(
        legacy.internet_checksum(data), data[offset : offset + width], new[:width]
    )
    # RFC 1624 §3: eqn. 3 and a resum can differ only in which zero
    # they store; both verify.
    want = legacy.internet_checksum(patched)
    assert got == want or {got, want} == {0x0000, 0xFFFF}


# ----------------------------------------------------------------------
# The per-hop rewrite: closed form == full re-pack
# ----------------------------------------------------------------------

#: Stored-checksum words next to every edge of ``HC + 0x0100`` with
#: end-around carry: the two zeros, the carry out of the low octet, and
#: 0xFEFF — the one word the decrement maps onto 0x0000.
_EDGE_WORDS = [
    0x0000, 0x0001, 0x00FE, 0x00FF, 0x0100,
    0xFEFE, 0xFEFF, 0xFF00, 0xFFFE,
]


def _header_with_checksum(rng, ttl: int, want: int) -> Ipv4Header:
    """A header at ``ttl`` whose packed checksum is ``want``, reached by
    solving for the ident field (one's-complement: ident = ~want - rest)."""
    fields = dict(
        src=rng.getrandbits(32), dst=rng.getrandbits(32),
        protocol=rng.getrandbits(8), total_length=20 + 11,
        tos=rng.getrandbits(8), ttl=ttl,
    )
    blank = Ipv4Header(ident=0, **fields).pack()
    rest = legacy.sum16(blank[:10]) + legacy.sum16(blank[12:])
    ident = ((~want & 0xFFFF) - rest) % 0xFFFF
    header = Ipv4Header(ident=ident, **fields)
    assert int.from_bytes(header.pack()[10:12], "big") == want
    return header


@pytest.mark.parametrize("ttl", range(2, 256))
def test_forwarded_copy_equals_repacked_header(ttl):
    rng = random.Random(ttl)
    payload = rng.randbytes(11)
    words = _EDGE_WORDS + [rng.randrange(0xFFFF) for _ in range(6)]
    for want in words:
        header = _header_with_checksum(rng, ttl, want)
        packet = header.pack() + payload
        expected = Ipv4Header(
            src=header.src, dst=header.dst, protocol=header.protocol,
            total_length=header.total_length, ident=header.ident,
            tos=header.tos, ttl=ttl - 1,
        ).pack() + payload
        for shape in (packet, memoryview(packet)):
            rewritten = as_wire_bytes(forwarded_copy(header, shape))
            assert rewritten == expected, f"ttl={ttl} checksum={want:#06x}"
            assert Ipv4Header.unpack(rewritten, verify=True).ttl == ttl - 1


@pytest.mark.parametrize("ttl", range(2, 256, 23))
def test_forwarded_copy_of_a_negative_zero_checksum(ttl):
    """A sender may store 0xFFFF where the sum calls for 0x0000; the
    header verifies either way and must still verify a hop later."""
    header = _header_with_checksum(random.Random(ttl), ttl, 0x0000)
    packet = bytearray(header.pack() + b"tail")
    packet[10:12] = b"\xff\xff"
    assert Ipv4Header.unpack(packet, verify=True) == header
    rewritten = as_wire_bytes(forwarded_copy(header, bytes(packet)))
    assert Ipv4Header.unpack(rewritten, verify=True).ttl == ttl - 1
    assert rewritten[12:] == bytes(packet[12:])


@pytest.mark.parametrize("ttl", [0, 1])
def test_forwarded_copy_refuses_an_expired_ttl(ttl):
    header = Ipv4Header(src=1, dst=2, protocol=17, total_length=20, ttl=ttl)
    with pytest.raises(IpError):
        forwarded_copy(header, header.pack())
