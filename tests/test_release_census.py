"""The release census: one way back for what the registry hands out.

The registry is the trusted owner of every end-point (paper §3.4): it
allocates the port, has the network I/O module build the channel, and
takes everything back at exit.  Written once per failure site, that
ownership leaked — a hung ``connect()``, a port reserved for good, a
peer left ESTABLISHED to a dead application — so it is written once:
a lease records what an operation holds and ``RegistryServer._release``
is the only code that hands any of it back (DESIGN.md "Leases").  A
second hand-back path, a side table beside the lease, or a tenancy
refusal acted on outside ``TenantManager.admit`` fails this test until
it says why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
REGISTRY = (SRC / "registry" / "server.py").read_text()
NETIO = (SRC / "netio" / "module.py").read_text()

#: Each occurs once in the registry, inside ``_release``.
HAND_BACKS = ("ports.release(", "release_ring(", "destroy_channel(", "remove_listener(")
#: The side tables the lease replaced, and the sabotage knob only the
#: tenant manager and the two data-path sites may read.
GONE = ("_peer_bqi", "self._pending", "self._records", "self._listeners", "enforcing")
#: The data-path sites that log what they would have refused.
ENFORCING_READERS = {"send", "_deliver"}


def _functions_containing(tree: ast.AST, wanted) -> set[str]:
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if wanted(node)
    }


def test_the_registry_hands_back_through_one_function():
    counts = {call: REGISTRY.count(call) for call in HAND_BACKS}
    assert counts == dict.fromkeys(HAND_BACKS, 1), counts
    methods = {call.split(".")[-1].rstrip("(") for call in HAND_BACKS}
    callers = _functions_containing(
        ast.parse(REGISTRY),
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods,
    )
    assert callers == {"_release"}, callers


def test_the_registry_keeps_no_side_table_and_unwinds_no_refusal_by_hand():
    assert [name for name in GONE if name in REGISTRY] == []
    caught = [
        ast.unparse(handler.type)
        for handler in ast.walk(ast.parse(REGISTRY))
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
    ]
    assert [name for name in caught if "TenantViolation" in name] == []


def test_only_the_data_path_reads_the_enforcing_flag_in_netio():
    readers = _functions_containing(
        ast.parse(NETIO),
        lambda node: isinstance(node, ast.Attribute) and node.attr == "enforcing",
    )
    assert readers == ENFORCING_READERS, readers
    assert "TenantViolation" not in NETIO
