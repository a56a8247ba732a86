"""The protocol libraries: sans-io TCP, IP, ARP, UDP, and ICMP.

These correspond to the paper's user-linkable protocol libraries.  Each
is a pure event-in/action-out engine; the plumbing that runs them inside
a particular protocol organization lives in :mod:`repro.org`.
"""

from .arp import ArpStack, SendArp
from ..net.checksum import internet_checksum
from .icmp import (
    EchoMessage,
    ErrorMessage,
    UNREACH_PORT,
    decode_echo,
    decode_unreachable,
    encode_echo,
    encode_unreachable,
    make_reply,
)
from .ip import IpDatagram, IpError, IpStack
from .rrp import RrpClient, RrpError, RrpMessage, RrpServer
from .udp import (
    UdpDatagram,
    UdpError,
    UdpPortTable,
    decode_datagram,
    encode_datagram,
)

__all__ = [
    "internet_checksum",
    "IpStack",
    "IpDatagram",
    "IpError",
    "RrpClient",
    "RrpServer",
    "RrpMessage",
    "RrpError",
    "ArpStack",
    "SendArp",
    "UdpPortTable",
    "UdpDatagram",
    "UdpError",
    "encode_datagram",
    "decode_datagram",
    "EchoMessage",
    "ErrorMessage",
    "encode_unreachable",
    "decode_unreachable",
    "UNREACH_PORT",
    "encode_echo",
    "decode_echo",
    "make_reply",
]
