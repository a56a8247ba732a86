"""Unit tests for TCP building blocks: RTO, congestion control,
reassembly, and the segment wire codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import TCP_ACK, TCP_SYN
from repro.protocols.tcp import (
    ChecksumError,
    ReassemblyQueue,
    RttEstimator,
    Segment,
    decode_segment,
    encode_segment,
)
from repro.protocols.tcp.cc.reno import Reno

# ----------------------------------------------------------------------
# RttEstimator
# ----------------------------------------------------------------------


def test_rto_initial_value():
    rtt = RttEstimator(initial_rto=3.0, min_rto=1.0)
    assert rtt.rto == 3.0


def test_first_sample_sets_srtt():
    rtt = RttEstimator(min_rto=0.1)
    rtt.start_timing(seq=100, now=10.0)
    rtt.on_ack(ack=100, now=10.5)
    assert rtt.srtt == pytest.approx(0.5)
    assert rtt.rttvar == pytest.approx(0.25)
    # RTO = srtt + 4*rttvar = 1.5.
    assert rtt.rto == pytest.approx(1.5)


def test_later_samples_smooth():
    rtt = RttEstimator(min_rto=0.01)
    rtt.start_timing(100, now=0.0)
    rtt.on_ack(100, now=1.0)  # srtt=1.0
    rtt.start_timing(200, now=2.0)
    rtt.on_ack(200, now=2.5)  # sample 0.5
    assert rtt.srtt == pytest.approx(1.0 + (0.5 - 1.0) / 8)


def test_one_sample_at_a_time():
    rtt = RttEstimator(min_rto=0.01)
    rtt.start_timing(100, now=0.0)
    rtt.start_timing(200, now=5.0)  # Ignored: already timing.
    rtt.on_ack(100, now=1.0)
    assert rtt.srtt == pytest.approx(1.0)
    rtt.on_ack(200, now=9.0)  # The ignored start left nothing to sample.
    assert rtt.srtt == pytest.approx(1.0)


def test_partial_ack_does_not_sample():
    rtt = RttEstimator(min_rto=0.01)
    rtt.start_timing(200, now=0.0)
    rtt.on_ack(150, now=1.0)  # Does not cover seq 200.
    assert rtt.srtt is None
    rtt.on_ack(200, now=2.0)  # Still timed: the covering ACK samples it.
    assert rtt.srtt == pytest.approx(2.0)


def test_karn_rule_cancels_sample():
    rtt = RttEstimator()
    rtt.start_timing(100, now=0.0)
    rtt.on_retransmit()
    rtt.on_ack(100, now=50.0)  # Must not produce a 50 s sample.
    assert rtt.srtt is None


def test_backoff_doubles_rto_and_ack_resets():
    rtt = RttEstimator(initial_rto=2.0, min_rto=1.0, max_rto=64.0)
    assert rtt.rto == 2.0
    rtt.on_retransmit()
    assert rtt.rto == 4.0
    rtt.on_retransmit()
    assert rtt.rto == 8.0
    rtt.on_ack(1, now=0.0)
    assert rtt.rto == 2.0


def test_rto_clamped_to_max():
    rtt = RttEstimator(initial_rto=3.0, max_rto=10.0)
    for _ in range(10):
        rtt.on_retransmit()
    assert rtt.rto == 10.0


def test_rto_floor():
    rtt = RttEstimator(min_rto=1.0)
    rtt.start_timing(10, 0.0)
    rtt.on_ack(10, 0.001)  # 1 ms RTT.
    assert rtt.rto >= 1.0


# ----------------------------------------------------------------------
# Reno congestion control
# ----------------------------------------------------------------------


def test_slow_start_doubles_per_rtt():
    cc = Reno(mss=1000)
    assert cc.cwnd == 1000
    cc.on_new_ack(1000)
    assert cc.cwnd == 2000
    cc.on_new_ack(1000)
    cc.on_new_ack(1000)
    assert cc.cwnd == 4000


def test_congestion_avoidance_linear():
    cc = Reno(mss=1000, ssthresh=2000)
    cc.cwnd = 2000
    cc.on_new_ack(1000)
    # Above ssthresh: additive increase of mss*mss/cwnd.
    assert cc.cwnd == 2000 + 1000 * 1000 // 2000


def test_timeout_collapses_window():
    cc = Reno(mss=1000)
    cc.cwnd = 8000
    cc.on_timeout(flight_size=8000)
    assert cc.cwnd == 1000
    assert cc.ssthresh == 4000


def test_ssthresh_floor_two_mss():
    cc = Reno(mss=1000)
    cc.on_timeout(flight_size=1000)
    assert cc.ssthresh == 2000


def test_fast_retransmit_on_third_dupack():
    cc = Reno(mss=1000, flavor="reno")
    cc.cwnd = 10000
    assert not cc.on_duplicate_ack(10000)
    assert not cc.on_duplicate_ack(10000)
    assert cc.on_duplicate_ack(10000)  # Third triggers.
    assert cc.ssthresh == 5000
    assert cc.cwnd == 5000 + 3000  # Reno inflation.
    assert cc.in_recovery


def test_reno_recovery_deflates_on_new_ack():
    cc = Reno(mss=1000, flavor="reno")
    cc.cwnd = 10000
    for _ in range(3):
        cc.on_duplicate_ack(10000)
    cc.on_duplicate_ack(10000)  # Extra dup inflates.
    assert cc.cwnd == 9000
    cc.on_new_ack(4000)
    assert cc.cwnd == cc.ssthresh == 5000
    assert not cc.in_recovery


def test_tahoe_collapses_on_fast_retransmit():
    cc = Reno(mss=1000, flavor="tahoe")
    cc.cwnd = 10000
    for _ in range(3):
        cc.on_duplicate_ack(10000)
    assert cc.cwnd == 1000
    assert not cc.in_recovery


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError):
        Reno(mss=1000, flavor="vegas")


# ----------------------------------------------------------------------
# ReassemblyQueue
# ----------------------------------------------------------------------


def test_reassembly_in_order():
    q = ReassemblyQueue()
    q.insert(100, b"abc", rcv_nxt=100)
    assert q.extract(100) == b"abc"
    assert not q.runs


def test_reassembly_gap_blocks_extract():
    q = ReassemblyQueue()
    q.insert(110, b"later", rcv_nxt=100)
    assert q.extract(100) == b""
    q.insert(100, b"0123456789", rcv_nxt=100)
    assert q.extract(100) == b"0123456789later"


def test_reassembly_duplicate_discarded():
    q = ReassemblyQueue()
    q.insert(100, b"abcdef", rcv_nxt=100)
    q.insert(100, b"abcdef", rcv_nxt=100)
    assert q.extract(100) == b"abcdef"


def test_reassembly_overlap_trimmed():
    q = ReassemblyQueue()
    q.insert(100, b"abcd", rcv_nxt=100)
    q.insert(102, b"cdEF", rcv_nxt=100)
    assert q.extract(100) == b"abcdEF"


def test_reassembly_stale_data_below_rcv_nxt_dropped():
    q = ReassemblyQueue()
    q.insert(90, b"0123456789", rcv_nxt=95)  # First 5 bytes stale.
    assert q.extract(95) == b"56789"


def test_reassembly_entirely_stale_dropped():
    q = ReassemblyQueue()
    q.insert(80, b"old", rcv_nxt=100)
    assert not q.runs


@given(
    chunks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.binary(min_size=1, max_size=20),
        ),
        max_size=20,
    )
)
def test_reassembly_never_corrupts_stream(chunks):
    """Inserting arbitrary (possibly overlapping) slices of one true
    stream and extracting must yield a prefix-consistent result."""
    stream = bytes(range(256)) * 2  # 512 distinct-ish bytes.
    q = ReassemblyQueue()
    base = 1000
    for offset, _ in chunks:
        data = stream[offset : offset + 20]
        if data:
            q.insert(base + offset, data, rcv_nxt=base)
    out = q.extract(base)
    assert out == stream[: len(out)]


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

SRC_IP = 0x0A000001
DST_IP = 0x0A000002


def test_segment_encode_decode_round_trip():
    seg = Segment(
        sport=4000,
        dport=80,
        seq=1234,
        ack=5678,
        flags=TCP_ACK,
        window=8192,
        payload=b"hello wire",
    )
    data = encode_segment(seg, SRC_IP, DST_IP)
    parsed = decode_segment(data, SRC_IP, DST_IP)
    assert parsed == seg


def test_segment_with_mss_round_trip():
    seg = Segment(
        sport=1, dport=2, seq=0, ack=0, flags=TCP_SYN, window=100, mss=536
    )
    parsed = decode_segment(encode_segment(seg, SRC_IP, DST_IP), SRC_IP, DST_IP)
    assert parsed.mss == 536


def test_corrupted_segment_rejected():
    seg = Segment(
        sport=1, dport=2, seq=9, ack=0, flags=TCP_ACK, window=5, payload=b"data"
    )
    data = bytearray(encode_segment(seg, SRC_IP, DST_IP))
    data[-1] ^= 0x01
    with pytest.raises(ChecksumError):
        decode_segment(bytes(data), SRC_IP, DST_IP)


def test_wrong_pseudo_header_rejected():
    seg = Segment(sport=1, dport=2, seq=9, ack=0, flags=TCP_ACK, window=5)
    data = encode_segment(seg, SRC_IP, DST_IP)
    with pytest.raises(ChecksumError):
        decode_segment(data, SRC_IP, DST_IP + 1)  # Misdelivered.


def test_seg_len_counts_syn_fin():
    from repro.net.headers import TCP_FIN

    syn = Segment(sport=1, dport=2, seq=0, ack=0, flags=TCP_SYN, window=0)
    assert syn.seg_len == 1
    fin = Segment(
        sport=1, dport=2, seq=0, ack=0, flags=TCP_FIN, window=0, payload=b"xy"
    )
    assert fin.seg_len == 3


@given(
    payload=st.binary(max_size=100),
    seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_codec_round_trip_property(payload, seq):
    seg = Segment(
        sport=1234,
        dport=80,
        seq=seq,
        ack=0,
        flags=TCP_ACK,
        window=1024,
        payload=payload,
    )
    parsed = decode_segment(encode_segment(seg, SRC_IP, DST_IP), SRC_IP, DST_IP)
    assert parsed == seg
