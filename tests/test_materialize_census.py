"""The materialization census: where a chain becomes flat octets.

A :class:`~repro.net.buf.PacketBuffer` is fused into ``bytes`` once per
frame, where its device reads it: the PMADD's programmed-I/O copy onto
the board, or the AN1 controller's DMA fetch (DESIGN.md "Packet buffer
architecture").  Every other fusion is a reader that needs flat octets
for a reason of its own — the demux and filter readers, a decode handed
a chain, the campaign's evidence.  Each ``as_wire_bytes(...)`` or
``.tobytes()`` call under ``src/`` must sit on the list below with its
reason, so a new fusion site fails tier-1 until someone says why it is
there, and a site that goes must leave the list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (file, innermost function) holding a fusion call, and why.
SITES = {
    # The two device boundaries: once per frame.  The PMADD copies in
    # a thread (``driver_transmit``) or in interrupt context
    # (``transmit``), DESIGN.md "Parallel implementations".
    ("net/nic/pmadd.py", "driver_transmit"): "the PMADD's PIO copy onto the board",
    ("net/nic/pmadd.py", "transmit"): "the same copy, for a kernel sending from interrupt context",
    ("net/link.py", "_wire"): "AN1's DMA fetch; a PMADD frame arrives flat",
    # The fusion itself, and the helpers that read through it.
    ("net/buf.py", "as_wire_bytes"): "the one fusion: PacketBuffer.tobytes, cached",
    ("net/buf.py", "slice_view"): "a window into a chain is a window into its image",
    # Readers that need flat octets of whatever they are handed.
    ("net/headers.py", "unpack"): "a header decode handed a chain",
    ("protocols/tcp/wire.py", "decode_segment"): "a segment decode handed a chain",
    ("org/udplib.py", "_receive_loop"): "a datagram the kernel relayed locally",
    ("netio/demux.py", "classify"): "the demux reads flow keys off the frame",
    ("netio/pktfilter.py", "run"): "the filter interpreter reads flat octets",
    ("netio/pktfilter.py", "classify"): "the filter scan reads flat octets",
    ("check/evidence.py", "strict_decode"): "the campaign's evidence",
    ("paper.py", "demux_frame"): "the Table 5 probe frame, built before its run",
}


def _is_fusion(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "as_wire_bytes"
    return isinstance(func, ast.Attribute) and func.attr in ("as_wire_bytes", "tobytes")


def _fusion_sites() -> set:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    inside[node] = function.name  # Innermost wins: walk is top-down.
        relative = path.relative_to(SRC).as_posix()
        found.update(
            (relative, inside.get(node)) for node in ast.walk(tree) if _is_fusion(node)
        )
    return found


def test_every_fusion_site_is_listed_with_its_reason():
    found = _fusion_sites()
    assert found - set(SITES) == set(), "a new fusion site: list it with its reason"
    assert set(SITES) - found == set(), "SITES lists sites that no longer fuse"
