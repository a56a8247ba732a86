"""The release census: one way back for what the registry hands out.

The registry is the trusted owner of every end-point (paper §3.4): it
allocates the port, has the network I/O module build the channel, and
takes everything back at exit.  Written once per failure site, that
ownership leaked — a hung ``connect()``, a port reserved for good, a
peer left ESTABLISHED to a dead application — so it is written once:
a lease records what an operation holds, ``RegistryCore.release`` is
the only rule that hands any of it back, and ``KernelPath._give_back``
the only code that applies what it hands back (DESIGN.md "Leases"),
with one ``_hand_back`` per shell for that shell's own share.
The kernel stacks keep their PCBs in the same core and share the
registry's kernel-path input, so it is every organization's end-point
table: the one port allocator and ISS source.
A second hand-back path, a side table beside the lease (in the registry
or in a stack), a read of a core's or the registry's private state from
outside ``registry/``, or a tenancy refusal caught, or let through by
the ``enforcing`` switch, anywhere but ``TenantManager.admit`` and the
module's two data-path sites fails this test until it says why; the
tenant counts each refusal once, by reason, and nothing else does.  What is
held is counted in one place too: the network I/O module's tables are
the only account, so no running ``*_used`` total lives anywhere under
``src/`` (a tenant's usage and the host's wired pool are sums over
those tables).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
REGISTRY = (SRC / "registry" / "server.py").read_text()
CORE = (SRC / "registry" / "core.py").read_text()
KERNEL_PATH = (SRC / "registry" / "kernelpath.py").read_text()
NETIO = (SRC / "netio" / "module.py").read_text()
STACK = (SRC / "org" / "monolithic.py").read_text()

#: The kernel path's shared give-back: each occurs once in its module,
#: inside ``_give_back``.
HAND_BACKS = ("stop_timers(", "self._turn_away(", "self._hand_back(")
#: Each shell's own share: each occurs once in the shell, inside its
#: ``_hand_back`` (the stack's is the reset of a connection never accepted).
SHELL_HAND_BACKS = {
    "registry": (
        REGISTRY, ("release_ring(", "destroy_channel(", "remove_listener(", "self._send_reset(")
    ),
    "stack": (STACK, (".abort(",)),
}
#: The core's port namespace: call -> the lease rules that make it
#: (``open`` frees only the port it has just taken for a four-tuple
#: a live lease already names).
PORT_CALLS = {
    "self.reserve(": {"open"}, "self.allocate(": {"open"}, "self.free(": {"open", "release"},
}
#: The side tables the lease replaced (the stack's PCB dicts and
#: counters among them), and the sabotage knob only the tenant manager
#: and the two data-path sites may read.
GONE = (
    "_peer_bqi", "self._pending", "self._records", "self._listeners", "enforcing",
    "self._connections", "_next_port", "_next_iss",
)
#: The data-path sites that log what they would have refused.
ENFORCING_READERS = {"send", "_deliver"}
#: An expression naming a registry (``registry``, ``bed.registry_a``)
#: or a core (a registry's, or a kernel stack's ``stack.core``).
REGISTRY_NAME = re.compile(r"(\bregistr(y|ies)\w*|\bcore)$")


def _functions_containing(tree: ast.AST, wanted) -> set[str]:
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if wanted(node)
    }


def _callers(source: str, call: str) -> set[str]:
    method = call.rstrip("(").split(".")[-1]
    return _functions_containing(
        ast.parse(source),
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method,
    )


def test_the_registry_hands_back_through_one_function():
    """The registry's ``_give_back`` is ``KernelPath``'s, which the
    kernel stacks share."""
    counts = {call: KERNEL_PATH.count(call) for call in HAND_BACKS}
    assert counts == dict.fromkeys(HAND_BACKS, 1), counts
    callers = set().union(*(_callers(KERNEL_PATH, call) for call in HAND_BACKS))
    assert callers == {"_give_back"}, callers
    # Neither shell applies a shared step of its own.
    for source in (REGISTRY, STACK):
        assert {call: source.count(call) for call in HAND_BACKS} == dict.fromkeys(HAND_BACKS, 0)
    # Every release, in either shell or the shared input, is applied by it.
    for source in (REGISTRY, STACK, KERNEL_PATH):
        calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
        applied = [call.args[0] for call in calls if ast.unparse(call.func).endswith("._give_back")]
        released = [call for call in calls if ast.unparse(call.func).endswith("core.release")]
        assert [ast.unparse(call) for call in released if call not in applied] == []


@pytest.mark.parametrize("shell", SHELL_HAND_BACKS)
def test_each_shell_has_one_hand_back_function(shell):
    source, calls = SHELL_HAND_BACKS[shell]
    counts = {call: source.count(call) for call in calls}
    assert counts == dict.fromkeys(calls, 1), counts
    callers = set().union(*(_callers(source, call) for call in calls))
    assert callers == {"_hand_back"}, callers


def test_the_core_moves_ports_only_in_its_lease_rules():
    assert {call: _callers(CORE, call) for call in PORT_CALLS} == PORT_CALLS
    assert [call for call in PORT_CALLS if call.replace("self.", "core.") in REGISTRY] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_nothing_outside_the_registry_reads_its_private_state():
    """A core's one read surface is ``leases`` and ``held(now)``: no
    module outside ``registry/`` reads an ``_``-prefixed attribute of a
    registry or of a core, the stack's included, and none fishes for
    one by name with ``getattr``."""
    readers = []
    for path in sorted({*ROOT.glob("*/**/*.py")} - {*(SRC / "registry").glob("*.py")}):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and _private(node.attr)
                and REGISTRY_NAME.search(ast.unparse(node.value))
            ) or (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and _private(str(node.args[1].value))
            ):
                readers.append(f"{path.relative_to(ROOT)}:{node.lineno} {ast.unparse(node)}")
    assert readers == []


def test_the_registry_keeps_no_side_table_and_unwinds_no_refusal_by_hand():
    assert [name for name in GONE if name in REGISTRY + CORE + KERNEL_PATH + STACK] == []
    caught = [
        ast.unparse(handler.type)
        for handler in ast.walk(ast.parse(REGISTRY))
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
    ]
    assert [name for name in caught if "TenantViolation" in name] == []


def test_every_machine_takes_its_iss_from_a_core():
    """The ISS of every TcpMachine under ``src/`` is ``<core>.iss()``."""
    sources = {
        f"{path.relative_to(SRC)}: "
        + next((ast.unparse(k.value) for k in node.keywords if k.arg == "iss"), "none")
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "TcpMachine"
    }
    assert sources == {
        "org/monolithic.py: stack.core.iss()", "registry/server.py: self.core.iss()",
    }


def test_only_the_data_path_reads_the_enforcing_flag_in_netio():
    readers = _functions_containing(
        ast.parse(NETIO),
        lambda node: isinstance(node, ast.Attribute) and node.attr == "enforcing",
    )
    assert readers == ENFORCING_READERS, readers
    assert "TenantViolation" not in NETIO


def test_no_running_used_total():
    """No ``*_used`` attribute is moved with ``+=`` or ``-=`` anywhere
    under ``src/``: a running total beside the module's tables is a
    second account that can drift from them."""
    totals = [
        f"{path.relative_to(SRC)}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, (ast.Add, ast.Sub))
        and isinstance(node.target, ast.Attribute)
        and node.target.attr.endswith("_used")
    ]
    assert totals == []
