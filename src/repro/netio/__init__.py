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
    CompiledDemux,
    FilterError,
    FilterProgram,
    Instruction,
    Op,
    compile_tcp_demux,
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
    "FilterProgram",
    "CompiledDemux",
    "FilterError",
    "Instruction",
    "Op",
    "tcp_filter_program",
    "compile_tcp_demux",
    "HeaderTemplate",
    "ByteConstraint",
    "TemplateViolation",
    "tcp_send_template",
    "udp_send_template",
]
