"""Unit tests for the flow-table demux engine."""

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.net.headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    str_to_ip,
    str_to_mac,
)
from repro.netio import KERNEL_FLOW, DemuxError, FlowKey, FlowTable, ScanTable
from repro.netio.pktfilter import tcp_filter_program, udp_filter_program
from repro.protocols.tcp import Segment, encode_segment

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")

COSTS = DECSTATION_5000_200


def tcp_frame(sport, dport, src_ip=IP_A, dst_ip=IP_B):
    seg = Segment(
        sport=sport, dport=dport, seq=1, ack=1, flags=TCP_ACK,
        window=64, payload=b"payload",
    )
    tcp = encode_segment(seg, src_ip, dst_ip)
    ip = Ipv4Header(
        src=src_ip, dst=dst_ip, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    ).pack() + tcp
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + ip


def test_flow_key_tiers():
    exact = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    listen = FlowKey(PROTO_TCP, IP_B, 80)
    assert exact.is_exact
    assert not listen.is_exact
    assert "tcp" in str(exact) and "*" in str(listen)


def test_exact_tier_hit():
    table = FlowTable()
    chan = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), chan)
    decision = table.classify(tcp_frame(5000, 80), COSTS)
    assert decision.channel is chan
    assert decision.tier == "exact"
    assert decision.cost == COSTS.flow_lookup
    assert table.stats["exact_hits"] == 1


def test_exact_miss_goes_to_miss_with_fixed_cost():
    table = FlowTable()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), object())
    decision = table.classify(tcp_frame(5000, 81), COSTS)
    assert decision.channel is None
    assert decision.tier == "miss"
    # The synthesized lookup costs the same on hit and miss.
    assert decision.cost == COSTS.flow_lookup
    assert table.stats["misses"] == 1


def test_wildcard_tier_and_kernel_flow():
    table = FlowTable()
    table.install(FlowKey(PROTO_TCP, IP_B, 80), KERNEL_FLOW)
    decision = table.classify(tcp_frame(12345, 80), COSTS)
    # A listener flow is a wildcard *hit* that still has no channel.
    assert decision.tier == "wildcard"
    assert decision.channel is None
    assert table.stats["wildcard_hits"] == 1


def test_wildcard_checks_local_ip():
    table = FlowTable()
    chan = object()
    table.install(FlowKey(PROTO_UDP, IP_B, 53), chan)
    other_ip_frame = tcp_frame(5000, 53, dst_ip=IP_A)
    assert table.classify(other_ip_frame, COSTS).channel is None
    # local_ip 0 in the entry means any destination address.
    table2 = FlowTable()
    table2.install(FlowKey(PROTO_TCP, 0, 53), chan)
    assert table2.classify(tcp_frame(5000, 53), COSTS).channel is chan


def test_exact_beats_wildcard():
    table = FlowTable()
    listener = object()
    conn = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80), listener)
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), conn)
    assert table.classify(tcp_frame(5000, 80), COSTS).channel is conn
    assert table.classify(tcp_frame(5001, 80), COSTS).channel is listener


def test_duplicate_installs_refused():
    table = FlowTable()
    key = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    table.install(key, object())
    with pytest.raises(DemuxError):
        table.install(key, object())
    wkey = FlowKey(PROTO_UDP, IP_B, 53)
    table.install(wkey, object())
    with pytest.raises(DemuxError):
        table.install(wkey, object())


def test_remove_is_idempotent():
    table = FlowTable()
    chan = object()
    key = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    table.install(key, chan)
    table.remove(key)
    table.remove(key)  # Second teardown must not raise.
    assert table.classify(tcp_frame(5000, 80), COSTS).channel is None
    assert len(table) == 0


def test_scan_tier_charges_per_program_until_match():
    table = ScanTable("cspf")
    decoy = tcp_filter_program(IP_B, 9999, IP_A, 8888)
    target_filter = tcp_filter_program(IP_B, 80, IP_A, 5000)
    chan = object()
    for key, target, program in (
        (FlowKey(PROTO_TCP, IP_B, 9999, IP_A, 8888), object(), decoy),
        (FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), chan, target_filter),
    ):
        table.install(key, target)
        table.add_filter(key, program, target)
    decision = table.classify(tcp_frame(5000, 80), COSTS)
    assert decision.channel is chan
    assert decision.tier == "scan"
    assert decision.scanned == 2
    assert decision.cost == pytest.approx(
        decoy.interpretation_cost(COSTS)
        + target_filter.interpretation_cost(COSTS)
    )
    assert table.stats["scan_hits"] == 1
    assert table.stats["filters_scanned"] == 2
    assert table.stats["max_scan_len"] == 2
    table.remove(key)  # The flow's filter goes with it; the decoy stays.
    gone = table.classify(tcp_frame(5000, 80), COSTS)
    assert (gone.tier, gone.scanned) == ("miss", 1)


def test_interpreted_style_skips_indexed_tiers():
    """Historical kernels had no flow table: a ScanTable bypasses the
    indexed tiers, so classification runs the filters even though an
    indexed entry exists."""
    table = ScanTable("cspf")
    chan = object()
    filt = udp_filter_program(IP_B, 53)
    key = FlowKey(PROTO_UDP, IP_B, 53)
    table.install(key, chan)
    table.add_filter(key, filt, chan)
    frame = tcp_frame(5000, 80)  # TCP: the UDP filter rejects it.
    decision = table.classify(frame, COSTS)
    assert decision.tier == "miss"
    assert decision.scanned == 1
    assert decision.cost == pytest.approx(filt.interpretation_cost(COSTS))


def test_kernel_side_wildcard_resolution():
    table = ScanTable("cspf")
    chan = object()
    filt = udp_filter_program(IP_B, 53)
    key = FlowKey(PROTO_UDP, IP_B, 53)
    table.install(key, chan)
    table.add_filter(key, filt, chan)
    # The forwarder resolves the binding regardless of demux style.
    assert table.wildcard_target(PROTO_UDP, 53, IP_B) is chan
    assert table.wildcard_target(PROTO_UDP, 53) is chan
    assert table.wildcard_target(PROTO_UDP, 54, IP_B) is None
    assert table.wildcard_target(PROTO_UDP, 53, IP_A) is None


def test_extract_key_rejects_malformed():
    assert FlowTable.extract_key(b"") is None
    assert FlowTable.extract_key(b"\x00" * 37) is None  # Too short.
    arp = bytearray(tcp_frame(5000, 80))
    arp[12:14] = b"\x08\x06"  # Not IP.
    assert FlowTable.extract_key(bytes(arp)) is None
    key = FlowTable.extract_key(tcp_frame(5000, 80))
    assert key == FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)


def test_lookup_cost_independent_of_flow_count():
    table = FlowTable()
    chan = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), chan)
    cost_1 = table.classify(tcp_frame(5000, 80), COSTS).cost
    for i in range(255):
        table.install(
            FlowKey(PROTO_TCP, IP_B, 20000 + i, IP_A, 30000 + i), object()
        )
    cost_256 = table.classify(tcp_frame(5000, 80), COSTS).cost
    assert cost_1 == cost_256 == COSTS.flow_lookup


def test_free_cost_model_classifies_for_nothing():
    table = FlowTable()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), object())
    assert table.classify(tcp_frame(5000, 80), FREE).cost == 0.0


def test_port_owner_multiset_goes_with_its_last_exact_flow():
    """Tenanted churn on ephemeral ports must not leave one zeroed
    multiset per port behind."""
    table = FlowTable()
    keys = [FlowKey(PROTO_TCP, IP_B, 4000, IP_A, 5000 + i) for i in range(2)]
    table.install(keys[0], object(), owner="alpha")
    table.install(keys[1], object(), owner="beta")
    table.remove(keys[0])
    assert table._port_owners[(PROTO_TCP, 4000)].snapshot() == {"beta": 1}
    # alpha is gone from the port, so only beta's flows shadow-protect it.
    with pytest.raises(DemuxError):
        table.install(FlowKey(PROTO_TCP, IP_B, 4000), object(), owner="alpha")
    table.remove(keys[1])
    table.remove(keys[1])  # Idempotent here too.
    assert table._port_owners == {} and table._exact_owners == {}
    table.install(FlowKey(PROTO_TCP, IP_B, 4000), object(), owner="alpha")
