"""Byte-equivalence fuzz for the zero-copy datapath.

The scatter-gather datapath must be invisible on the wire: every frame a
chain builds has to be bit-identical to what the concatenating oracle
(:mod:`.eager_datapath`) produces, the RFC 1624 incremental checksums
must equal full resums, and the template encoder must match
:func:`encode_segment` exactly — including across retransmissions and
ack/window patches.  The last test is the copy-regression guard: bytes
copied per delivered segment on a Table 2 bulk transfer, chain vs oracle.
"""

import random

import pytest

from repro.net import buf
from repro.net.buf import PacketBuffer, as_wire_bytes, prepend, slice_view
from repro.net.checksum import (
    checksum_parts,
    incremental_update,
    internet_checksum,
    pseudo_header,
)
from repro.net.headers import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    Ipv4Header,
    PROTO_UDP,
    TcpHeader,
)
from repro.protocols.ip import IpStack, forwarded_copy
from repro.protocols.tcp.wire import (
    Segment,
    TcpSegmentEncoder,
    decode_segment,
    encode_segment,
)
from repro.metrics import measure_throughput
from repro.protocols.udp import decode_datagram, encode_datagram
from repro.testbed import Testbed

from . import eager_datapath as eager

IP_A = 0x0A000001
IP_B = 0x0A000002

#: Payload sizes that have historically hidden bugs: empty, single byte,
#: odd lengths (checksum tail byte), and a full MTU's worth.
SIZES = [0, 1, 3, 17, 128, 555, 1024, 1460]


@pytest.fixture(autouse=True)
def _clean_counters():
    """Each test starts with clean counters, and ends on the real
    datapath whatever it raised inside the oracle."""
    buf.reset_stats()
    yield
    assert buf.prepend is prepend and buf.slice_view is slice_view


def payload_of(size: int, seed: int = 0) -> bytes:
    return bytes(random.Random(seed ^ size).randrange(256) for _ in range(size))


def in_both_modes(build):
    """Run ``build()`` on the chain datapath, then on the concatenating
    oracle; return the flat wire bytes of each."""
    chained = as_wire_bytes(build())
    with eager.eager_datapath():
        copied = build()
    return chained, copied


# ----------------------------------------------------------------------
# PacketBuffer mechanics
# ----------------------------------------------------------------------

def test_packet_buffer_basic_ops():
    chain = PacketBuffer((b"head", memoryview(b"body-odd"), b""))
    assert len(chain) == 12
    assert chain.tobytes() == b"headbody-odd"
    assert chain[0] == ord("h") and chain[-1] == ord("d")
    assert chain[4:8] == b"body"
    assert list(chain) == list(b"headbody-odd")
    assert chain == b"headbody-odd"


def test_packet_buffer_concat_operators():
    chain = b"one" + PacketBuffer((b"two",)) + b"three"
    assert isinstance(chain, PacketBuffer)
    assert chain.tobytes() == b"onetwothree"


def test_prepend_shares_but_never_mutates_payload_chain():
    """The retransmit cache depends on prepend not growing its input."""
    segment_image = PacketBuffer((b"tcp-header", b"payload"))
    framed = prepend(b"ip-header", segment_image)
    prepend(b"eth-header", framed)
    assert segment_image.tobytes() == b"tcp-headerpayload"
    assert len(segment_image.fragments) == 2


def test_materialization_is_cached_and_counted_once():
    buf.reset_stats()
    chain = PacketBuffer((b"a" * 100, b"b" * 50))
    first = as_wire_bytes(chain)
    second = as_wire_bytes(chain)
    assert first is second
    assert buf.STATS.materialized_bytes == 150
    assert buf.STATS.materialize_ops == 1


# ----------------------------------------------------------------------
# Checksums: parts == flat, incremental == full resum
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trial", range(40))
def test_checksum_parts_matches_flat_sum(trial):
    rng = random.Random(trial)
    data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
    cuts = sorted(rng.randrange(len(data) + 1) for _ in range(rng.randrange(4)))
    parts, prev = [], 0
    for cut in cuts + [len(data)]:
        parts.append(data[prev:cut])
        prev = cut
    # Mix in the bytes-like zoo, including a nested chain.
    parts = [
        memoryview(p) if i % 3 == 1 else bytearray(p) if i % 3 == 2 else p
        for i, p in enumerate(parts)
    ]
    assert checksum_parts(*parts) == internet_checksum(data)
    assert checksum_parts(PacketBuffer(
        bytes(p) for p in parts if len(p)
    )) == internet_checksum(data)


@pytest.mark.parametrize("trial", range(40))
def test_incremental_update_matches_full_resum(trial):
    rng = random.Random(1000 + trial)
    data = bytearray(
        rng.randrange(256) for _ in range(2 * rng.randrange(2, 40))
    )
    checksum = internet_checksum(data)
    width = rng.choice([2, 4])
    offset = rng.randrange(0, len(data) - width + 1, 2)
    old = bytes(data[offset:offset + width])
    new = bytes(rng.randrange(256) for _ in range(width))
    updated = incremental_update(checksum, old, new)
    data[offset:offset + width] = new
    assert updated == internet_checksum(data), (
        f"offset={offset} old={old.hex()} new={new.hex()}"
    )


# ----------------------------------------------------------------------
# Encode equivalence: chain arm == eager (legacy concatenation) arm
# ----------------------------------------------------------------------

@pytest.mark.parametrize("size", SIZES)
def test_tcp_encode_chain_equals_eager(size):
    segment = Segment(
        sport=1234, dport=80, seq=7, ack=99,
        flags=TCP_ACK | TCP_PSH, window=8192, payload=payload_of(size),
    )
    chained, copied = in_both_modes(
        lambda: encode_segment(segment, IP_A, IP_B)
    )
    assert chained == copied
    assert isinstance(copied, bytes)
    decoded = decode_segment(chained, IP_A, IP_B)
    assert bytes(decoded.payload) == segment.payload


@pytest.mark.parametrize("size", SIZES)
def test_udp_encode_chain_equals_eager(size):
    data = payload_of(size, seed=7)
    chained, copied = in_both_modes(
        lambda: encode_datagram(4000, 53, data, IP_A, IP_B)
    )
    assert chained == copied
    datagram = decode_datagram(chained, IP_A, IP_B)
    assert (datagram.src_port, datagram.dst_port) == (4000, 53)
    assert bytes(datagram.payload) == data


@pytest.mark.parametrize("size", SIZES + [4000])
def test_ip_send_chain_equals_eager(size):
    data = payload_of(size, seed=13)

    def build():
        stack = IpStack(IP_A)
        packets = stack.send(IP_B, PROTO_UDP, data, mtu=1500)
        return PacketBuffer(as_wire_bytes(p) for p in packets)

    chained, copied = in_both_modes(build)
    assert chained == copied


def test_forwarded_copy_chain_equals_eager_and_resums():
    stack = IpStack(IP_A)
    packet = as_wire_bytes(
        stack.send(IP_B, PROTO_UDP, payload_of(333), mtu=1500)[0]
    )
    header = Ipv4Header.unpack(packet)

    chained, copied = in_both_modes(lambda: forwarded_copy(header, packet))
    assert chained == copied
    rewritten = Ipv4Header.unpack(chained, verify=True)  # checksum still valid
    assert rewritten.ttl == header.ttl - 1


# ----------------------------------------------------------------------
# Template encoder == encode_segment, always
# ----------------------------------------------------------------------

def _random_segment(rng, seq, payload):
    flags = TCP_ACK
    if rng.random() < 0.1:
        flags |= TCP_PSH
    if rng.random() < 0.05:
        flags |= TCP_FIN
    return Segment(
        sport=5000, dport=80, seq=seq,
        ack=rng.randrange(1 << 32), flags=flags,
        window=rng.randrange(1 << 16), payload=payload,
    )


@pytest.mark.parametrize("trial", range(10))
def test_template_encoder_fuzz_matches_full_encode(trial):
    """Random send/retransmit/ack-advance traffic: every image the
    template encoder emits equals a from-scratch encode."""
    rng = random.Random(5000 + trial)
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    history = []
    seq = rng.randrange(1 << 32)
    for _ in range(120):
        if history and rng.random() < 0.3:
            # Retransmission: same seq/payload; ack and window may move.
            base = rng.choice(history[-8:])
            segment = Segment(
                sport=base.sport, dport=base.dport, seq=base.seq,
                ack=rng.choice([base.ack, rng.randrange(1 << 32)]),
                flags=base.flags,
                window=rng.choice([base.window, rng.randrange(1 << 16)]),
                payload=base.payload,
            )
        else:
            size = rng.choice(SIZES)
            segment = _random_segment(rng, seq, payload_of(size, rng.randrange(99)))
            seq = (seq + max(size, 1)) % (1 << 32)
            history.append(segment)
        fast = as_wire_bytes(encoder.encode(segment))
        slow = as_wire_bytes(encode_segment(segment, IP_A, IP_B))
        assert fast == slow, f"template mismatch on {segment!r}"
    hits = (
        encoder.stats["template_patches"] + encoder.stats["retransmit_reuses"]
    )
    assert hits > 0, "fuzz traffic never exercised the fast path"


def test_template_encoder_syn_and_foreign_ports_take_slow_path():
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    syn = Segment(
        sport=5000, dport=80, seq=1, ack=0,
        flags=TCP_SYN, window=4096, mss=1460,
    )
    assert as_wire_bytes(encoder.encode(syn)) == as_wire_bytes(
        encode_segment(syn, IP_A, IP_B)
    )
    other = Segment(
        sport=6000, dport=80, seq=1, ack=2, flags=TCP_ACK, window=4096,
    )
    assert as_wire_bytes(encoder.encode(other)) == as_wire_bytes(
        encode_segment(other, IP_A, IP_B)
    )
    assert encoder.stats["template_patches"] == 0
    assert encoder.stats["retransmit_reuses"] == 0


def test_template_patch_is_checksum_correct():
    """An ack/window patch must leave a segment that verifies."""
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    data = payload_of(555)
    first = Segment(
        sport=5000, dport=80, seq=10, ack=20,
        flags=TCP_ACK, window=1000, payload=data,
    )
    encoder.encode(first)
    patched = Segment(
        sport=5000, dport=80, seq=10, ack=0xFFFF0001,
        flags=TCP_ACK, window=0, payload=data,
    )
    wire = as_wire_bytes(encoder.encode(patched))
    assert encoder.stats["template_patches"] == 1
    pseudo = pseudo_header(IP_A, IP_B, PROTO_TCP, len(wire))
    assert checksum_parts(pseudo, wire) == 0
    decoded = decode_segment(wire, IP_A, IP_B)
    assert (decoded.ack, decoded.window) == (0xFFFF0001, 0)


def test_retransmit_reuses_cached_header_image():
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    segment = Segment(
        sport=5000, dport=80, seq=42, ack=7,
        flags=TCP_ACK, window=512, payload=payload_of(128),
    )
    first = as_wire_bytes(encoder.encode(segment))
    again = as_wire_bytes(encoder.encode(segment))
    assert first == again
    assert encoder.stats["retransmit_reuses"] == 1


# ----------------------------------------------------------------------
# Views are windows into the original octets
# ----------------------------------------------------------------------

def test_slice_view_modes():
    data = bytes(range(100))
    view = slice_view(data, 10, 20)
    assert isinstance(view, memoryview)
    assert view.obj is data
    assert bytes(view) == data[10:20]
    assert buf.STATS.avoided_bytes == 10 and buf.STATS.copied_bytes == 0
    copied = eager.slice_view(data, 10, 20)
    assert isinstance(copied, bytes)
    assert copied == data[10:20]
    assert buf.STATS.copied_bytes == 10


def test_decode_payload_is_zero_copy_view():
    data = payload_of(1024)
    segment = Segment(
        sport=1, dport=2, seq=3, ack=4,
        flags=TCP_ACK, window=5, payload=data,
    )
    wire = as_wire_bytes(encode_segment(segment, IP_A, IP_B))
    decoded = decode_segment(wire, IP_A, IP_B)
    assert isinstance(decoded.payload, memoryview)
    assert decoded.payload.obj is wire  # a window, not a copy
    assert bytes(decoded.payload) == data


# ----------------------------------------------------------------------
# Copy-regression guard: bytes copied per delivered segment
# ----------------------------------------------------------------------

#: Table 2's bulk transfer on ethernet/userlib, short enough for tier 1.
TRANSFER_BYTES = 150_000
#: The chain datapath's bytes copied per delivered segment on that
#: transfer (875.65: wire-image fusion only, no host copy).  A per-layer
#: copy that creeps back in lands far above it.
CHAIN_CEILING = 876.0
#: The paper's claim for its shared buffers, held against the oracle
#: (5.82x today).
MIN_REDUCTION = 2.0


def _bulk_transfer_copy_facts() -> dict:
    buf.reset_stats()
    TcpSegmentEncoder.reset_global_stats()
    testbed = Testbed(network="ethernet", organization="userlib")
    result = measure_throughput(
        testbed, total_bytes=TRANSFER_BYTES, chunk_size=4096
    )
    hosts = testbed.hosts
    segments = sum(host.netio.stats["rx_demuxed"] for host in hosts)
    encoder = TcpSegmentEncoder.GLOBAL_STATS
    template_hits = encoder["template_patches"] + encoder["retransmit_reuses"]
    return {
        "throughput_mbps": result.throughput_mbps,
        "segments": segments,
        "host_copied_bytes": buf.STATS.copied_bytes,
        "copied_per_segment": buf.STATS.total_copied / segments,
        "template_hit_rate": template_hits
        / (template_hits + encoder["full_encodes"]),
        "payload_views": sum(
            host.netio.flow_table.stats["payload_views"] for host in hosts
        ),
    }


def test_chain_datapath_copies_at_least_2x_less_than_the_oracle():
    chain = _bulk_transfer_copy_facts()
    with eager.eager_datapath():
        copying = _bulk_transfer_copy_facts()
    # The cost model charges do not depend on how Python moves the
    # bytes: both arms are the same simulated run.
    assert chain["segments"] == copying["segments"] > 0
    assert chain["throughput_mbps"] == copying["throughput_mbps"]
    assert chain["host_copied_bytes"] == 0
    assert chain["copied_per_segment"] <= CHAIN_CEILING
    assert (
        copying["copied_per_segment"]
        >= MIN_REDUCTION * chain["copied_per_segment"]
    )
    # The fast paths actually engage on a bulk transfer.
    assert chain["template_hit_rate"] > 0.0
    assert chain["payload_views"] > 0
