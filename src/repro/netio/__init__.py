"""The network I/O module and its mechanisms: packet filters, header
templates, and kernel↔library channels."""

from .channels import Channel, ChannelClosed
from .demux import (
    KERNEL_FLOW,
    DemuxDecision,
    DemuxError,
    FlowKey,
    FlowTable,
)
from .module import NetworkIoModule, SecurityViolation
from .pktfilter import (
    FilterError,
    FilterProgram,
    Instruction,
    Op,
    ScanTable,
    tcp_filter_program,
)
from .template import (
    ByteConstraint,
    HeaderTemplate,
    TemplateViolation,
    tcp_send_template,
    udp_send_template,
)

__all__ = [
    "NetworkIoModule",
    "SecurityViolation",
    "Channel",
    "ChannelClosed",
    "DemuxDecision",
    "DemuxError",
    "FlowKey",
    "FlowTable",
    "KERNEL_FLOW",
    "ScanTable",
    "FilterProgram",
    "FilterError",
    "Instruction",
    "Op",
    "tcp_filter_program",
    "HeaderTemplate",
    "ByteConstraint",
    "TemplateViolation",
    "tcp_send_template",
    "udp_send_template",
]
