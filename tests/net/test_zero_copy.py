"""Byte-equivalence fuzz for the zero-copy datapath.

The scatter-gather datapath must be invisible on the wire: every frame a
chain builds has to be bit-identical to what the concatenating oracle
(:mod:`.eager_datapath`) produces — including across retransmissions,
which prepend a fresh header onto the same payload — and the one RFC
1624 incremental checksum left, the router's TTL patch, must equal a
full resum.  The last test is the copy-regression guard: bytes copied
per delivered segment on a Table 2 bulk transfer, chain vs oracle.
"""

import random
import struct
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costs import FREE
from repro.mach import Kernel
from repro.net import buf
from repro.net.buf import PacketBuffer, as_wire_bytes, prepend, slice_view
from repro.net.checksum import internet_checksum
from repro.net.headers import (
    BROADCAST_MAC,
    ETHERTYPE_IP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    An1Header,
    EthernetHeader,
    IP_FLAG_MF,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.link import An1Link, EthernetLink
from repro.net.nic.an1ctrl import An1Nic
from repro.net.nic.pmadd import PmaddNic
from repro.protocols.ip import IpStack, forwarded_header
from repro.protocols.tcp.wire import (
    Segment,
    TcpSegmentEncoder,
    decode_segment,
    encode_header,
    encode_segment,
)
from repro.metrics import measure_throughput
from repro.protocols.udp import decode_datagram, encode_datagram
from repro.sim import Simulator
from repro.testbed import Testbed

from . import eager_datapath as eager
from . import legacy_checksum as legacy

IP_A = 0x0A000001
IP_B = 0x0A000002
MAC_A = b"\x02\x00\x00\x00\x00\x01"

#: Payload sizes that have historically hidden bugs: empty, single byte,
#: odd lengths (checksum tail byte), and a full MTU's worth.
SIZES = [0, 1, 3, 17, 128, 555, 1024, 1460]


@pytest.fixture(autouse=True)
def _clean_counters():
    """Each test starts with clean counters, and ends on the real
    datapath whatever it raised inside the oracle."""
    buf.STATS.reset()
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
    chain = prepend(b"head", memoryview(b"body-odd"))
    assert len(chain) == 12
    assert chain.tobytes() == b"headbody-odd"
    assert chain[0] == ord("h") and chain[-1] == ord("d")
    assert chain[4:8] == b"body"


def test_prepend_shares_but_never_mutates_payload_chain():
    """A chain caches its fused wire image, and a watcher or a queue may
    still hold it: prepend shares its input and never grows it."""
    segment_image = prepend(b"tcp-header", b"payload")
    framed = prepend(b"ip-header", segment_image)
    prepend(b"eth-header", framed)
    assert segment_image.tobytes() == b"tcp-headerpayload"
    assert len(segment_image._frags) == 2


def test_materialization_is_cached_and_counted_once():
    buf.STATS.reset()
    chain = prepend(b"a" * 100, b"b" * 50)
    first = as_wire_bytes(chain)
    second = as_wire_bytes(chain)
    assert first is second
    assert buf.STATS.materialized_bytes == 150
    assert buf.STATS.materialize_ops == 1


def _transmit_one_chain(network):
    """Hand one link-framed chain to a driver and run it onto the wire.
    Returns the chain, what the driver handed its ``Transmitter`` (each
    as its type and the fusions counted so far) and what the wire saw."""
    sim = Simulator()
    if network == "ethernet":
        link = EthernetLink(sim)
        nic = PmaddNic(Kernel(sim, FREE, name="a"), link, MAC_A)
        header = EthernetHeader(BROADCAST_MAC, MAC_A, ETHERTYPE_IP).pack()
    else:
        link = An1Link(sim)
        nic = An1Nic(Kernel(sim, FREE, name="a"), link, station=1)
        header = An1Header(2, 1, ETHERTYPE_IP).pack()
    chain = prepend(header, encode_datagram(4000, 53, payload_of(64), IP_A, IP_B))
    handed, submit = [], nic._tx.submit

    def spy(frame):
        handed.append((type(frame), buf.STATS.materialize_ops))
        return submit(frame)

    nic._tx.submit = spy
    wired = []
    link.watchers.append(
        SimpleNamespace(offered=wired.append, planned=lambda frame, plan: None)
    )
    sim.process(nic.driver_transmit(chain))
    sim.run()
    return chain, handed, wired


def test_pmadd_fuses_a_frame_at_its_pio_copy():
    """The PMADD has no DMA: the host copies every frame onto the board
    (§3.3), and that copy is the frame's one fusion.  Staging, the
    transmitter and the wire all hold the bytes it made."""
    chain, handed, wired = _transmit_one_chain("ethernet")
    assert handed == [(bytes, 1)]
    assert buf.STATS.materialize_ops == 1
    assert buf.STATS.materialized_bytes == len(chain)
    assert len(wired) == 1 and wired[0] is chain.tobytes()


def test_an1_fuses_a_frame_at_its_dma_fetch():
    """The AN1 controller fetches a frame by DMA after the driver posts
    its descriptor: the chain reaches the transmitter unfused and
    becomes octets once, at the fetch."""
    chain, handed, wired = _transmit_one_chain("an1")
    assert handed == [(PacketBuffer, 0)]
    assert buf.STATS.materialize_ops == 1
    assert buf.STATS.materialized_bytes == len(chain)
    assert len(wired) == 1 and wired[0] is chain.tobytes()


# ----------------------------------------------------------------------
# Checksums: parts == flat, the TTL patch == full resum
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
    # Mix in the bytes-like zoo.
    parts = [
        memoryview(p) if i % 3 == 1 else bytearray(p) if i % 3 == 2 else p
        for i, p in enumerate(parts)
    ]
    assert internet_checksum(*parts) == internet_checksum(data)


@pytest.mark.parametrize("trial", range(40))
def test_incremental_update_matches_full_resum(trial):
    """``forwarded_header`` patches the header checksum for the TTL
    decrement (RFC 1624) instead of resumming: on a random header it
    must store what a full re-pack stores."""
    rng = random.Random(1000 + trial)
    payload = payload_of(rng.randrange(0, 64), seed=trial)
    fields = dict(
        src=rng.getrandbits(32), dst=rng.getrandbits(32),
        protocol=rng.getrandbits(8), total_length=20 + len(payload),
        ident=rng.getrandbits(16), tos=rng.getrandbits(8),
    )
    ttl = rng.randrange(2, 256)
    header = Ipv4Header(ttl=ttl, **fields)
    updated = forwarded_header(header, header.pack() + payload) + payload
    resummed = Ipv4Header(ttl=ttl - 1, **fields).pack() + payload
    assert updated == resummed, f"{header!r}"


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
        return b"".join(as_wire_bytes(p) for p in packets)

    chained, copied = in_both_modes(build)
    assert chained == copied


def test_forwarded_copy_chain_equals_eager_and_resums():
    stack = IpStack(IP_A)
    packet = as_wire_bytes(
        stack.send(IP_B, PROTO_UDP, payload_of(333), mtu=1500)[0]
    )
    header = Ipv4Header.unpack(packet)

    def forward():
        # The router's chain, link header aside: the patched header in
        # front of a view of the packet's rest (read through ``buf``,
        # which the oracle rebinds).
        return buf.prepend(
            forwarded_header(header, packet),
            buf.slice_view(packet, Ipv4Header.LENGTH),
        )

    chained, copied = in_both_modes(forward)
    assert chained == copied
    rewritten = Ipv4Header.unpack(chained, verify=True)  # checksum still valid
    assert rewritten.ttl == header.ttl - 1


# ----------------------------------------------------------------------
# TCP encode == concatenating encode, across retransmissions
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
    """Random send/retransmit/ack-advance traffic, each retransmission
    prepending a fresh header onto the payload object it was first sent
    with: every image ``TcpSegmentEncoder`` emits (the ledger's sans-io
    workload encodes with it) equals the concatenating oracle's encode
    and decodes back to its segment."""
    rng = random.Random(5000 + trial)
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    history = []
    retransmits = 0
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
            retransmits += 1
        else:
            size = rng.choice(SIZES)
            segment = _random_segment(rng, seq, payload_of(size, rng.randrange(99)))
            seq = (seq + max(size, 1)) % (1 << 32)
            history.append(segment)
        chained = as_wire_bytes(encoder.encode(segment))
        with eager.eager_datapath():
            copied = encode_segment(segment, IP_A, IP_B)
        assert chained == copied, f"encode mismatch on {segment!r}"
        decoded = decode_segment(chained, IP_A, IP_B)
        assert (decoded.seq, decoded.ack, decoded.window, decoded.flags) == (
            segment.seq, segment.ack, segment.window, segment.flags
        )
        assert bytes(decoded.payload) == segment.payload
    assert retransmits > 0, "fuzz traffic never retransmitted"


# ----------------------------------------------------------------------
# One header image == the IPv4 record + the concatenating TCP encode
# ----------------------------------------------------------------------

_PSEUDO = struct.Struct("!IIBBH")
_TCP = struct.Struct("!HHIIBBHHH")


def legacy_tcp(segment: Segment, src_ip: int, dst_ip: int) -> bytes:
    """The concatenating TCP encode: the header packed with a zero
    checksum, the pseudo-header, header and payload joined and summed
    by the word-sum oracle, the checksum spliced in."""
    options = b"" if segment.mss is None else struct.pack("!BBH", 2, 4, segment.mss)
    head = _TCP.pack(
        segment.sport, segment.dport, segment.seq, segment.ack,
        (20 + len(options)) // 4 << 4, segment.flags, segment.window, 0, 0,
    ) + options
    payload = bytes(segment.payload)
    pseudo = _PSEUDO.pack(src_ip, dst_ip, 0, PROTO_TCP, len(head) + len(payload))
    checksum = legacy.internet_checksum(pseudo + head + payload)
    return head[:16] + checksum.to_bytes(2, "big") + head[18:] + payload


def one_image(ip: IpStack, segment: Segment, dst_ip: int, mtu: int = 1500) -> list:
    """A sender's packets for ``segment``: ``encode_header``'s bytes
    handed to ``IpStack.send`` with the unsliced payload."""
    head, length = encode_header(segment, ip.local_ip, dst_ip)
    assert length == len(head) + len(segment.payload)
    return ip.send(dst_ip, PROTO_TCP, segment.payload, mtu, 64, head)


def record(ident: int, segment: Segment, tcp: bytes) -> bytes:
    """The packet the IPv4 record and the legacy TCP bytes make."""
    header = Ipv4Header(IP_A, IP_B, PROTO_TCP, Ipv4Header.LENGTH + len(tcp), ident)
    packed = header.pack()
    assert legacy.internet_checksum(packed) == 0
    return packed + tcp


def folded_to_ffff(segment: Segment) -> Segment:
    """``segment`` with two payload octets appended that make its TCP
    sum fold to 0xFFFF, so the checksum it carries is 0x0000."""
    payload = bytes(segment.payload)
    if len(payload) % 2:
        payload += b"\0"
    probe = legacy_tcp(segment._replace(payload=payload + bytes(2)), IP_A, IP_B)
    partial = 0xFFFF - int.from_bytes(probe[16:18], "big")
    word = (0xFFFF - partial) % 0xFFFF
    return segment._replace(payload=payload + word.to_bytes(2, "big"))


#: One stack for every example, its idents read back from a mirror: a
#: hypothesis replay or shrink sends once per run, as the first did.
_STACK = IpStack(IP_A)
_SENT = [0]


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    payload=st.binary(max_size=301),
    view=st.booleans(),
    mss=st.one_of(st.none(), st.integers(1, 0xFFFF)),
    seq=st.integers(0, (1 << 32) - 1),
    ack=st.integers(0, (1 << 32) - 1),
    flags=st.integers(0, 0x3F),
    window=st.integers(0, 0xFFFF),
    fold=st.sampled_from(["none", "tcp-ffff", "payload-0000", "payload-ffff"]),
)
def test_one_image_equals_the_record_and_the_concatenating_encode(
    payload, view, mss, seq, ack, flags, window, fold
):
    """Odd lengths, views, a SYN's MSS option, and payloads whose own
    sum folds to 0x0000 (all zero) or 0xFFFF, or that fold the whole TCP
    sum to 0xFFFF (checksum 0x0000): the one image is the IPv4 record's
    bytes followed by the concatenating TCP encode, and
    ``encode_segment`` is its TCP slice."""
    if fold == "payload-0000":
        payload = bytes(len(payload))
    elif fold == "payload-ffff":
        payload = b"\xff" * (len(payload) | 2)
    segment = Segment(5000, 80, seq, ack, flags, window, payload, mss)
    if fold == "tcp-ffff":
        segment = folded_to_ffff(segment)
        assert legacy_tcp(segment, IP_A, IP_B)[16:18] == b"\0\0"
    if view:
        segment = segment._replace(payload=memoryview(bytes(segment.payload)))
    tcp = legacy_tcp(segment, IP_A, IP_B)
    (packet,) = one_image(_STACK, segment, IP_B)
    _SENT[0] += 1
    assert as_wire_bytes(packet) == record(_SENT[0] % 0x10000, segment, tcp)
    assert as_wire_bytes(encode_segment(segment, IP_A, IP_B)) == tcp


def test_one_image_idents_wrap_and_an_ip_sum_that_folds_to_ffff():
    """The stack's idents run 1 … 0xFFFF and wrap to 0, each packed in
    the image as the record packs it — including the ident whose IPv4
    header sum folds to 0xFFFF, its checksum 0x0000."""
    segment = Segment(5000, 80, 1, 7, TCP_ACK, 8192, b"x")
    tcp = legacy_tcp(segment, IP_A, IP_B)
    # The header with ident and checksum zero, summed: the ident that
    # makes up the rest of 0xFFFF folds the whole sum there.
    zero = struct.pack(
        "!BBHHHBBHII", 0x45, 0, Ipv4Header.LENGTH + len(tcp), 0, 0, 64, PROTO_TCP, 0, IP_A, IP_B
    )
    folding = 0xFFFF - legacy.fold(legacy.sum16(zero))
    ip = IpStack(IP_A)
    checked = set()
    for ident in [*range(1, 0x10000), 0, 1]:
        (packet,) = one_image(ip, segment, IP_B)
        if ident in (1, folding, 0xFFFF, 0):
            wire = as_wire_bytes(packet)
            assert wire == record(ident, segment, tcp)
            checked.add(ident)
    assert checked == {0, 1, folding, 0xFFFF}
    assert record(folding, segment, tcp)[10:12] == b"\0\0"


@pytest.mark.parametrize("mtu", [576, 1006])
def test_a_segment_over_the_mtu_fragments_at_the_sender_as_before(mtu):
    """A segment larger than ``mtu`` − 40 (an MSS the MTU cannot carry)
    leaves as fragments of its TCP bytes, byte for byte what the stack
    sent when the TCP chain went to ``IpStack.send`` whole."""
    segment = Segment(5000, 80, 1, 7, TCP_ACK, 8192, payload_of(1460), None)
    image = one_image(IpStack(IP_A), segment, IP_B, mtu)
    chained = IpStack(IP_A).send(IP_B, PROTO_TCP, encode_segment(segment, IP_A, IP_B), mtu)
    assert len(image) == len(chained) > 1
    assert [as_wire_bytes(p) for p in image] == [as_wire_bytes(p) for p in chained]
    tcp = legacy_tcp(segment, IP_A, IP_B)
    chunk = (mtu - Ipv4Header.LENGTH) // 8 * 8
    for i, packet in enumerate(image):
        data = tcp[i * chunk : (i + 1) * chunk]
        last = (i + 1) * chunk >= len(tcp)
        header = Ipv4Header(
            IP_A, IP_B, PROTO_TCP, Ipv4Header.LENGTH + len(data), 1,
            0 if last else IP_FLAG_MF, i * chunk // 8,
        )
        assert as_wire_bytes(packet) == header.pack() + data


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
    buf.STATS.reset()
    testbed = Testbed(network="ethernet", organization="userlib")
    result = measure_throughput(
        testbed, total_bytes=TRANSFER_BYTES, chunk_size=4096
    )
    hosts = testbed.hosts
    segments = sum(host.netio.stats["rx_demuxed"] for host in hosts)
    return {
        "throughput_mbps": result.throughput_mbps,
        "segments": segments,
        "host_copied_bytes": buf.STATS.copied_bytes,
        "copied_per_segment": (buf.STATS.copied_bytes + buf.STATS.materialized_bytes) / segments,
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
    # The demux hands channels views, not copies, on a bulk transfer.
    assert chain["payload_views"] > 0
