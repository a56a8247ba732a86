"""The function-level import census.

An ``import`` statement inside a function body runs on every call: a
function reading a module global takes 0.02 µs, one whose body is
``from .seq import unwrap`` 1.0 µs (a relative import re-resolves the
package from ``__spec__`` each time), and four of them on per-segment
paths were 5 % of the ``sansio`` workload's calls (EXPERIMENTS.md
"Simulator at scale").  Imports belong at module level; the ones
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
    "org/userlib.py": {"hand_off"},
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
    """Every CPU charge under ``src/`` reads ``if cost: yield
    cpu.charge(cost)``.  ``CPU.consume`` was the same two lines as a
    generator, and a ``yield from`` frame under a charge is entered
    twice per charge by cProfile (and CPython): 42 calls per
    ``pingpong`` round trip before the per-segment sites went in place,
    and 50.9 per ``churn`` cycle on the set-up paths after (DESIGN.md
    "Serial").  It is gone, and does not come back as a call site."""
    assert not hasattr(CPU, "consume")
    strays = [
        f"src/repro/{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ".consume(" in line
    ]
    assert not strays, "charge in place (if cost: yield cpu.charge(cost)):\n" + "\n".join(strays)
