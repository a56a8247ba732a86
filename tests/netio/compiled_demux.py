"""Test oracle: synthesized demux as one closure per flow.

The paper: "The logic required for address demultiplexing is simple and
can be incorporated into the kernel either via run time code synthesis
or via compilation when new protocols are added ... requires only a few
instructions."  Production classifies with the indexed
:class:`~repro.netio.demux.FlowTable`; this is the direct predicate form
of the same match, kept so the fuzz suites can hold the interpreted
:class:`~repro.netio.pktfilter.FilterProgram` and the flow table to a
third, independent answer on every frame — truncated and malformed ones
included.  Nothing under ``src/`` calls it.
"""

import struct
from typing import Callable

from repro.costs import CostModel
from repro.net.headers import EthernetHeader, Ipv4Header, PROTO_TCP, PROTO_UDP


class CompiledDemux:
    """A direct predicate with the paper's fixed cost (Table 5: 52 µs)."""

    def __init__(self, predicate: Callable[[bytes], bool]) -> None:
        self.run = predicate

    def interpretation_cost(self, costs: CostModel, bpf_style: bool = False) -> float:
        return costs.sw_demux


def compile_tcp_demux(
    local_ip: int, local_port: int, remote_ip: int, remote_port: int
) -> CompiledDemux:
    """The synthesized equivalent of ``tcp_filter_program``."""
    eth = EthernetHeader.LENGTH
    ip_off = eth + Ipv4Header.LENGTH
    want_ips = remote_ip.to_bytes(4, "big") + local_ip.to_bytes(4, "big")
    want_ports = struct.pack("!HH", remote_port, local_port)

    def predicate(packet: bytes) -> bool:
        return (
            len(packet) >= ip_off + 4
            and packet[12:14] == b"\x08\x00"
            and packet[eth + 9] == PROTO_TCP
            and packet[eth + 12 : eth + 20] == want_ips
            and packet[ip_off : ip_off + 4] == want_ports
        )

    return CompiledDemux(predicate)


def compile_udp_demux(local_ip: int, local_port: int) -> CompiledDemux:
    """Synthesized demux for one UDP port binding."""
    eth = EthernetHeader.LENGTH
    ip_off = eth + Ipv4Header.LENGTH
    want_dst = local_ip.to_bytes(4, "big")
    want_port = local_port.to_bytes(2, "big")

    def predicate(packet: bytes) -> bool:
        return (
            len(packet) >= ip_off + 4
            and packet[12:14] == b"\x08\x00"
            and packet[eth + 9] == PROTO_UDP
            and packet[eth + 16 : eth + 20] == want_dst
            and packet[ip_off + 2 : ip_off + 4] == want_port
        )

    return CompiledDemux(predicate)
