"""Input packet demultiplexing by interpreted filter programs.

The paper contrasts three generations of software demux:

* The original **CSPF packet filter** [Mogul/Rashid/Accetta]: "a
  stack-based language where 'filter programs' composed of stack
  operations and operators are interpreted by a kernel-resident program
  at packet reception time ... not likely to scale with CPU speeds
  because it is memory intensive."  :class:`FilterProgram` is that
  stack machine, executed for real.
* The **BPF** rewrite [McCanne/Jacobson]: register-based, faster.  We
  model its cost class with a cheaper per-instruction charge.
* **Synthesized demux** [Massalin/Pu-style]: "the demultiplexing logic
  requires only a few instructions" compiled into the kernel when a
  connection is registered — :class:`~repro.netio.demux.FlowTable`, at
  the paper's measured fixed cost (Table 5: 52 µs).

All three *really classify* the same packets; only their cost models
differ, which is what the ablation bench measures.  :class:`ScanTable`
is the first two as a demux engine: the Table 5 /
``bench_ablation_filterstyle`` arm.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from ..costs import CostModel
from ..net.buf import as_wire_bytes
from ..net.headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
)
from .demux import DemuxDecision, DemuxError, FlowKey, FlowTable


class Op(enum.Enum):
    """Stack-machine instructions (CSPF-style)."""

    PUSH_LIT = "pushlit"  # Push immediate 16-bit value.
    PUSH_SHORT = "pushshort"  # Push 16-bit word at byte offset arg.
    PUSH_BYTE = "pushbyte"  # Push byte at offset arg.
    EQ = "eq"  # Pop two, push 1 if equal else 0.
    AND = "and"  # Pop two, push bitwise and.
    OR = "or"  # Pop two, push bitwise or.


@dataclass(frozen=True)
class Instruction:
    op: Op
    arg: int = 0


class FilterError(ValueError):
    """Malformed filter program or execution fault."""


class FilterProgram:
    """An interpreted stack-machine packet filter.

    ``run`` executes the program against raw frame bytes; the packet is
    accepted if the final stack top is non-zero.  ``executed`` counts
    instructions interpreted (for cost accounting and the ablation).
    """

    MAX_STACK = 32

    def __init__(self, instructions: list[Instruction], name: str = "filter") -> None:
        if not instructions:
            raise FilterError("empty filter program")
        self.instructions = list(instructions)
        self.name = name
        self.executed = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def run(self, packet: bytes) -> bool:
        packet = as_wire_bytes(packet)  # interpreter reads flat octets
        stack: list[int] = []
        for instr in self.instructions:
            self.executed += 1
            if instr.op is Op.PUSH_LIT:
                stack.append(instr.arg & 0xFFFF)
            elif instr.op is Op.PUSH_SHORT:
                if instr.arg + 2 > len(packet):
                    stack.append(0)  # Out-of-range reads see zero.
                else:
                    stack.append(
                        struct.unpack_from("!H", packet, instr.arg)[0]
                    )
            elif instr.op is Op.PUSH_BYTE:
                stack.append(
                    packet[instr.arg] if instr.arg < len(packet) else 0
                )
            elif instr.op in (Op.EQ, Op.AND, Op.OR):
                if len(stack) < 2:
                    raise FilterError("stack underflow")
                b, a = stack.pop(), stack.pop()
                if instr.op is Op.EQ:
                    stack.append(1 if a == b else 0)
                elif instr.op is Op.AND:
                    stack.append(a & b)
                else:
                    stack.append(a | b)
            if len(stack) > self.MAX_STACK:
                raise FilterError("stack overflow")
        return bool(stack and stack[-1])

    def interpretation_cost(self, costs: CostModel, bpf_style: bool = False) -> float:
        """CPU cost of one execution under the given cost model."""
        per_instr = costs.pktfilter_interp_instr
        if bpf_style:
            per_instr /= 3.0  # BPF's register machine is ~3x the CSPF speed.
        return costs.pktfilter_dispatch + per_instr * len(self)


def tcp_filter_program(
    local_ip: int, local_port: int, remote_ip: int, remote_port: int
) -> FilterProgram:
    """Build the CSPF program matching one TCP connection's 4-tuple.

    Offsets assume an Ethernet frame: link header 14 bytes, then IPv4
    (no options), then TCP.
    """
    eth = EthernetHeader.LENGTH
    ip = eth + Ipv4Header.LENGTH
    instrs = [
        # Ethertype == IP
        Instruction(Op.PUSH_SHORT, 12),
        Instruction(Op.PUSH_LIT, ETHERTYPE_IP),
        Instruction(Op.EQ),
        # Protocol == TCP (byte at eth+9; pair with literal).
        Instruction(Op.PUSH_BYTE, eth + 9),
        Instruction(Op.PUSH_LIT, PROTO_TCP),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        # Source IP == remote (two 16-bit compares).
        Instruction(Op.PUSH_SHORT, eth + 12),
        Instruction(Op.PUSH_LIT, remote_ip >> 16),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        Instruction(Op.PUSH_SHORT, eth + 14),
        Instruction(Op.PUSH_LIT, remote_ip & 0xFFFF),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        # Destination IP == local.
        Instruction(Op.PUSH_SHORT, eth + 16),
        Instruction(Op.PUSH_LIT, local_ip >> 16),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        Instruction(Op.PUSH_SHORT, eth + 18),
        Instruction(Op.PUSH_LIT, local_ip & 0xFFFF),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        # TCP source port == remote port, dest port == local port.
        Instruction(Op.PUSH_SHORT, ip + 0),
        Instruction(Op.PUSH_LIT, remote_port),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        Instruction(Op.PUSH_SHORT, ip + 2),
        Instruction(Op.PUSH_LIT, local_port),
        Instruction(Op.EQ),
        Instruction(Op.AND),
    ]
    return FilterProgram(
        instrs, name=f"tcp {remote_ip:#x}:{remote_port}->{local_port}"
    )


def udp_filter_program(local_ip: int, local_port: int) -> FilterProgram:
    """CSPF program matching UDP datagrams to one bound local port."""
    eth = EthernetHeader.LENGTH
    ip = eth + Ipv4Header.LENGTH
    instrs = [
        Instruction(Op.PUSH_SHORT, 12),
        Instruction(Op.PUSH_LIT, ETHERTYPE_IP),
        Instruction(Op.EQ),
        Instruction(Op.PUSH_BYTE, eth + 9),
        Instruction(Op.PUSH_LIT, PROTO_UDP),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        Instruction(Op.PUSH_SHORT, eth + 16),
        Instruction(Op.PUSH_LIT, local_ip >> 16),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        Instruction(Op.PUSH_SHORT, eth + 18),
        Instruction(Op.PUSH_LIT, local_ip & 0xFFFF),
        Instruction(Op.EQ),
        Instruction(Op.AND),
        # UDP destination port.
        Instruction(Op.PUSH_SHORT, ip + 2),
        Instruction(Op.PUSH_LIT, local_port),
        Instruction(Op.EQ),
        Instruction(Op.AND),
    ]
    return FilterProgram(instrs, name=f"udp :{local_port}")


class ScanTable(FlowTable):
    """The demux of kernels that predate flow tables: an ordered list
    of interpreted filter programs, run until the first accepts.

    Classification is O(installed filters) and charged per program
    executed (``"cspf"``, or ``"bpf"`` at a third of the per-instruction
    cost).  The indexed entries of :class:`FlowTable` are still kept —
    kernel-side consumers (the UDP forwarder) resolve port bindings
    through them — but :meth:`classify` never consults them.
    """

    def __init__(self, style: str) -> None:
        if style not in ("cspf", "bpf"):
            raise DemuxError(
                f"unknown demux style {style!r}: a scan table is 'cspf' or 'bpf'"
            )
        super().__init__()
        self.style = style
        self._scan: list[tuple[FlowKey, FilterProgram, object]] = []

    def add_filter(self, key: FlowKey, program: FilterProgram, target: object) -> None:
        """Append the program that claims frames for ``target``, the
        flow installed under ``key``.  A flow without one (a listener)
        is indexed only; the kernel consumer reaches it by miss."""
        self._scan.append((key, program, target))

    def remove(self, key: FlowKey) -> None:
        super().remove(key)
        self._scan = [entry for entry in self._scan if entry[0] != key]

    def classify(self, frame: bytes, costs: CostModel) -> DemuxDecision:
        """Run the filters in installation order, charging each one
        executed, and stop at the first that accepts the frame."""
        frame = as_wire_bytes(frame)  # the interpreter reads flat octets
        bpf = self.style == "bpf"
        stats = self.stats
        cost = 0.0
        scanned = 0
        for _key, program, target in self._scan:
            scanned += 1
            cost += program.interpretation_cost(costs, bpf_style=bpf)
            if program.run(frame):
                stats["scan_hits"] += 1
                tier = "scan"
                break
        else:
            stats["misses"] += 1
            target, tier = None, "miss"
        if scanned:
            stats["filters_scanned"] += scanned
            if scanned > stats["max_scan_len"]:
                stats["max_scan_len"] = scanned
        return DemuxDecision(target, tier, cost, scanned)
