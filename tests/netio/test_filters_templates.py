"""Tests for packet filters (interpreted + synthesized) and templates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costs import DECSTATION_5000_200
from repro.net.headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    str_to_ip,
    str_to_mac,
)
from repro.netio import (
    ByteConstraint,
    FilterError,
    FilterProgram,
    Instruction,
    Op,
    TemplateViolation,
    tcp_filter_program,
    tcp_send_template,
    udp_send_template,
)
from repro.protocols.tcp import Segment, encode_segment
from repro.net.headers import TCP_ACK

from .compiled_demux import compile_tcp_demux

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
IP_C = str_to_ip("10.0.0.3")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


def tcp_frame(src_ip, dst_ip, sport, dport, payload=b""):
    """Build a full Ethernet frame carrying one TCP segment."""
    seg = Segment(
        sport=sport, dport=dport, seq=1, ack=1, flags=TCP_ACK,
        window=100, payload=payload,
    )
    tcp = encode_segment(seg, src_ip, dst_ip)
    ip = Ipv4Header(
        src=src_ip, dst=dst_ip, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    ).pack() + tcp.tobytes()
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + ip


def ip_packet(src_ip, dst_ip, sport, dport):
    """Just the IP packet (for send-template checks)."""
    frame = tcp_frame(src_ip, dst_ip, sport, dport)
    return frame[EthernetHeader.LENGTH :]


# ----------------------------------------------------------------------
# Stack machine
# ----------------------------------------------------------------------


def test_stack_machine_basic_ops():
    program = FilterProgram(
        [
            Instruction(Op.PUSH_LIT, 5),
            Instruction(Op.PUSH_LIT, 5),
            Instruction(Op.EQ),
        ]
    )
    assert program.run(b"")
    assert program.executed == 3


def test_stack_machine_reads_packet_bytes():
    program = FilterProgram(
        [
            Instruction(Op.PUSH_SHORT, 2),
            Instruction(Op.PUSH_LIT, 0xBBCC),
            Instruction(Op.EQ),
        ]
    )
    assert program.run(bytes([0x00, 0x11, 0xBB, 0xCC]))
    assert not program.run(bytes([0x00, 0x11, 0xBB, 0xCD]))


def test_stack_machine_out_of_range_reads_zero():
    program = FilterProgram(
        [
            Instruction(Op.PUSH_SHORT, 100),
            Instruction(Op.PUSH_LIT, 0),
            Instruction(Op.EQ),
        ]
    )
    assert program.run(b"short")


def test_stack_machine_underflow_raises():
    program = FilterProgram([Instruction(Op.EQ)])
    with pytest.raises(FilterError):
        program.run(b"")


def test_empty_program_rejected():
    with pytest.raises(FilterError):
        FilterProgram([])


def test_and_or_semantics():
    program = FilterProgram(
        [
            Instruction(Op.PUSH_LIT, 1),
            Instruction(Op.PUSH_LIT, 0),
            Instruction(Op.OR),
            Instruction(Op.PUSH_LIT, 1),
            Instruction(Op.AND),
        ]
    )
    assert program.run(b"")


# ----------------------------------------------------------------------
# TCP connection filters (both styles must classify identically)
# ----------------------------------------------------------------------

FILTER_BUILDERS = [
    pytest.param(tcp_filter_program, id="cspf"),
    pytest.param(compile_tcp_demux, id="synthesized"),
]


@pytest.mark.parametrize("builder", FILTER_BUILDERS)
def test_filter_accepts_own_connection(builder):
    # Filter for B's side of an A->B connection: local=B:80, remote=A:5000.
    f = builder(IP_B, 80, IP_A, 5000)
    assert f.run(tcp_frame(IP_A, IP_B, 5000, 80))


@pytest.mark.parametrize("builder", FILTER_BUILDERS)
def test_filter_rejects_wrong_port(builder):
    f = builder(IP_B, 80, IP_A, 5000)
    assert not f.run(tcp_frame(IP_A, IP_B, 5001, 80))
    assert not f.run(tcp_frame(IP_A, IP_B, 5000, 81))


@pytest.mark.parametrize("builder", FILTER_BUILDERS)
def test_filter_rejects_wrong_host(builder):
    f = builder(IP_B, 80, IP_A, 5000)
    assert not f.run(tcp_frame(IP_C, IP_B, 5000, 80))


@pytest.mark.parametrize("builder", FILTER_BUILDERS)
def test_filter_rejects_non_tcp(builder):
    f = builder(IP_B, 80, IP_A, 5000)
    frame = bytearray(tcp_frame(IP_A, IP_B, 5000, 80))
    # Rewrite the protocol byte to UDP (checksum no longer matters to
    # the filter, which inspects raw fields).
    frame[14 + 9] = PROTO_UDP
    assert not f.run(bytes(frame))


@given(
    sport=st.integers(min_value=1, max_value=0xFFFF),
    dport=st.integers(min_value=1, max_value=0xFFFF),
)
def test_filter_styles_agree_property(sport, dport):
    interpreted = tcp_filter_program(IP_B, 80, IP_A, 5000)
    compiled = compile_tcp_demux(IP_B, 80, IP_A, 5000)
    frame = tcp_frame(IP_A, IP_B, sport, dport)
    assert interpreted.run(frame) == compiled.run(frame)


def test_interpretation_cost_scales_with_length():
    costs = DECSTATION_5000_200
    interpreted = tcp_filter_program(IP_B, 80, IP_A, 5000)
    compiled = compile_tcp_demux(IP_B, 80, IP_A, 5000)
    cspf_cost = interpreted.interpretation_cost(costs)
    bpf_cost = interpreted.interpretation_cost(costs, bpf_style=True)
    synth_cost = compiled.interpretation_cost(costs)
    # The paper's ordering: interpretation is the slow path.
    assert cspf_cost > bpf_cost > 0
    assert synth_cost == costs.sw_demux
    assert cspf_cost > synth_cost


# ----------------------------------------------------------------------
# Header templates
# ----------------------------------------------------------------------


def test_template_accepts_matching_packet():
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    template.verify(ip_packet(IP_A, IP_B, 5000, 80))
    assert template.checks == 1
    assert template.violations == 0


def test_template_rejects_spoofed_source_ip():
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    with pytest.raises(TemplateViolation):
        template.verify(ip_packet(IP_C, IP_B, 5000, 80))
    assert template.violations == 1


def test_template_rejects_hijacked_port():
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    with pytest.raises(TemplateViolation):
        template.verify(ip_packet(IP_A, IP_B, 4999, 80))
    with pytest.raises(TemplateViolation):
        template.verify(ip_packet(IP_A, IP_B, 5000, 8080))


def test_template_rejects_redirected_destination():
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    with pytest.raises(TemplateViolation):
        template.verify(ip_packet(IP_A, IP_C, 5000, 80))


def test_udp_template_allows_any_destination():
    template = udp_send_template(IP_A, 2000)
    from repro.protocols.udp import encode_datagram

    for dst in (IP_B, IP_C):
        udp = encode_datagram(2000, 53, b"q", IP_A, dst)
        packet = Ipv4Header(
            src=IP_A, dst=dst, protocol=PROTO_UDP,
            total_length=Ipv4Header.LENGTH + len(udp),
        ).pack() + udp.tobytes()
        template.verify(packet)


def test_udp_template_pins_source_port():
    template = udp_send_template(IP_A, 2000)
    from repro.protocols.udp import encode_datagram

    udp = encode_datagram(2001, 53, b"q", IP_A, IP_B)
    packet = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_UDP,
        total_length=Ipv4Header.LENGTH + len(udp),
    ).pack() + udp.tobytes()
    with pytest.raises(TemplateViolation):
        template.verify(packet)


def test_byte_constraint_check():
    constraint = ByteConstraint(2, b"\xab\xcd")
    assert constraint.check(b"\x00\x00\xab\xcd\x00")
    assert not constraint.check(b"\x00\x00\xab\xce\x00")
