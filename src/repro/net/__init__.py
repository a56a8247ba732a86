"""The network substrate: wire formats, checksums, links, fault
injection, and host-network interfaces."""

from .buf import (
    PacketBuffer,
    as_wire_bytes,
    prepend,
    slice_view,
)
from .checksum import internet_checksum, transport_sum
from .faults import FaultInjector, FaultPlan, PERFECT
from .headers import (
    ARP_REPLY,
    ARP_REQUEST,
    An1Header,
    ArpPacket,
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    Ipv4Header,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    UdpHeader,
    ip_to_str,
    mac_to_str,
    str_to_ip,
    str_to_mac,
)
from .link import An1Link, DuplexLink, EthernetLink, Link, Transmitter
from .nic import AN1_BROADCAST, An1Nic, Nic, PmaddNic

__all__ = [
    "PacketBuffer",
    "prepend",
    "slice_view",
    "as_wire_bytes",
    "internet_checksum",
    "transport_sum",
    "FaultInjector",
    "FaultPlan",
    "PERFECT",
    "EthernetHeader",
    "An1Header",
    "ArpPacket",
    "Ipv4Header",
    "UdpHeader",
    "IcmpHeader",
    "HeaderError",
    "ETHERTYPE_IP",
    "ETHERTYPE_ARP",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "ARP_REQUEST",
    "ARP_REPLY",
    "BROADCAST_MAC",
    "mac_to_str",
    "str_to_mac",
    "ip_to_str",
    "str_to_ip",
    "Link",
    "EthernetLink",
    "DuplexLink",
    "An1Link",
    "Transmitter",
    "Nic",
    "PmaddNic",
    "An1Nic",
    "AN1_BROADCAST",
]
