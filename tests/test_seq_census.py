"""The sequence-space census: the 32-bit circle in two places.

A TCP sequence number is a 32-bit modular value on the wire and
nowhere else: the TCB counts in plain integers, so the stack compares
with ``<`` and adds with ``+``, and wraparound is not a code path
through every comparison.  The circle is met where a segment arrives
(``unwrap``) and where one is built (``TcpMachine._emit`` masks; the
registry hands ``_send_rst`` a wire value) — DESIGN.md "Sequence
space".  A modular helper creeping back into the stack, or a mask
applied anywhere else, fails this test until it is listed with its
reason; the helpers themselves live on as a test oracle
(``tests/protocols/legacy_seq.py``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only files that may name ``seq_diff``: its home, and the
#: campaign's judges, which see wire values and nothing else.
SEQ_DIFF_NAMERS = {"protocols/tcp/seq.py", "check/invariants.py"}
#: The stack proper: from ``.seq`` these import ``unwrap`` or nothing.
STACK = ("machine.py", "tcb.py", "reassembly.py", "rto.py")
#: (file, function or None for module level) holding a literal 2**32
#: mask or modulus, and what it is doing there.
LITERALS = {
    ("protocols/tcp/seq.py", None): "MOD, the circle itself",
    ("protocols/tcp/machine.py", "_emit"): "TCB state masked into a segment",
    ("protocols/tcp/wire.py", "reset_for"): "wire seq + seg_len, for a segment no TCB claims",
    ("net/headers.py", "__post_init__"): "TcpHeader's range check: a forgotten mask raises",
    ("registry/server.py", "_iss"): "ISS allocator",
    ("org/monolithic.py", "_iss"): "ISS allocator",
    # Not sequence numbers: 32 bits of something else.
    ("net/fabric/routing.py", "prefix_mask"): "IPv4 prefix mask",
    ("net/fabric/topology.py", "fabric_mac"): "host number packed into a MAC",
    ("protocols/rrp.py", "call"): "RRP transaction id",
}
REMOVED = {"seq_add", "seq_lt", "seq_le", "seq_gt", "seq_ge", "seq_between", "seq_max", "seq_min"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions, however it mentions it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname))
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
    return found


def _is_circle_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value in (0xFFFFFFFF, 1 << 32)
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.LShift, ast.Pow))
        and ast.unparse(node) in ("1 << 32", "2 ** 32")
    )


def _literal_sites(tree: ast.AST) -> set:
    """The functions (None: module level) holding a 2**32 literal."""
    inside = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                inside[node] = function.name  # Innermost wins: walk is top-down.
    return {inside.get(node) for node in ast.walk(tree) if _is_circle_literal(node)}


def test_the_modular_helpers_are_gone_from_the_stack():
    names = {relative: _names(tree) for relative, tree in _trees()}
    namers = {relative for relative, found in names.items() if "seq_diff" in found}
    assert namers == SEQ_DIFF_NAMERS, namers
    back = {relative: found & REMOVED for relative, found in names.items() if found & REMOVED}
    assert back == {}


def test_the_stack_takes_only_unwrap_from_seq():
    for name in STACK:
        tree = ast.parse((SRC / "protocols" / "tcp" / name).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "seq"
            for alias in node.names
        }
        assert imported <= {"unwrap"}, (name, imported)


def test_a_literal_mask_only_where_the_census_says():
    found = {
        (relative, function)
        for relative, tree in _trees()
        for function in _literal_sites(tree)
    }
    assert found - set(LITERALS) == set(), "mask TCB state in _emit (or list it, with a reason)"
    assert set(LITERALS) - found == set(), "LITERALS lists sites that no longer hold one"
