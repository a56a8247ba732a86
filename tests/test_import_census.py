"""The function-level import census.

An ``import`` statement inside a function body runs on every call: a
function reading a module global takes 0.02 µs, one whose body is
``from .seq import unwrap`` 1.0 µs (a relative import re-resolves the
package from ``__spec__`` each time), and four of them on per-segment
paths were 5 % of the ``sansio`` workload's calls (CHANGES.md, PR
20).  Imports belong at module level; the ones
listed here break an import cycle or keep a heavy dependency off a
cold path (connection setup, a reset, a command, a campaign's
evidence pass); none is on the per-packet path of a workload.  A new
one fails this test until it is hoisted or listed.
"""

import ast
from pathlib import Path

from repro.sim import CPU

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: file (or directory, with a trailing slash) -> the functions allowed
#: to import, or None for any function in it.
ALLOWED = {
    "mach/kernel.py": {"create_task"},
    "metrics.py": {"measure_fabric_transfers"},
    "netstat.py": {"copy_table", "main"},
    "specialize.py": {"specialize"},
    "testbed.py": {"__init__"},
    "check/": None,
}


def _allowed(relative: str, function: str) -> bool:
    for place, functions in ALLOWED.items():
        if relative == place or (place.endswith("/") and relative.startswith(place)):
            return functions is None or function in functions
    return False


def function_level_imports():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield relative, node.name, inner.lineno


def test_no_import_inside_a_function_outside_the_census():
    found = list(function_level_imports())
    strays = [
        f"src/repro/{relative}:{line} in {function}()"
        for relative, function, line in found
        if not _allowed(relative, function)
    ]
    assert not strays, "hoist to module level (or list in ALLOWED):\n" + "\n".join(strays)
    sites = {(relative, function) for relative, function, _ in found}
    stale = [
        f"{place}::{function}"
        for place, functions in ALLOWED.items()
        for function in functions or ()
        if (place, function) not in sites
    ]
    assert not stale, f"ALLOWED lists functions that no longer import: {stale}"


def test_src_charges_without_the_consume_frame():
    """Every thread's CPU charge under ``src/`` is made in place, as
    :func:`test_no_thread_yields_a_charge` words it.  ``CPU.consume`` was
    the same two lines as a
    generator, and a ``yield from`` frame under a charge is entered
    twice per charge by cProfile (and CPython): 42 calls per
    ``pingpong`` round trip before the per-segment sites went in place,
    and 50.9 per ``churn`` cycle on the set-up paths after (DESIGN.md
    "Scaling the simulator").  It is gone, and does not come back as a call site."""
    assert not hasattr(CPU, "consume")
    strays = [
        f"src/repro/{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ".consume(" in line
    ]
    assert not strays, "charge in place (if cost: ... cpu.spend(cost)):\n" + "\n".join(strays)


def test_no_thread_yields_a_charge():
    """A thread charges its CPU with ``if cost and (turn :=
    cpu.spend(cost)) is not None: yield turn``, never ``yield
    cpu.charge(cost)``.  A turn the engine would take next is then taken
    in place, and the process is not resumed through its whole ``yield
    from`` chain for a step fixed when the charge was made: 12 a
    ``pingpong`` round trip and 31 a ``churn`` cycle before ``spend``.
    ``charge(cost, then)`` is interrupt context's, which cannot yield."""
    strays = [
        f"src/repro/{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "charge"
    ]
    assert not strays, "spend, not yield charge:\n" + "\n".join(strays)
