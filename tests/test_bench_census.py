"""The bench census: one entry point per bench, one gate per fact.

A ``benchmarks/bench_*.py`` is constants, run functions and ``test_*``
functions; pytest is its only front end (``pytest benchmarks`` is one
CI step).  A private ``main()`` grows its own flags, its own quick arm
and its own JSON baseline with hand-picked slack, and then every perf
PR refreshes a second copy of a number a test already pins — DESIGN.md
"Gates" says where each kind of fact is asserted instead.  The second
half keeps the documents honest about it: a command they quote must
name files that exist, and must run a bench through pytest.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))
DOCUMENTS = (
    ".github/workflows/ci.yml",
    "README.md",
    "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md",
)


def _front_end_residue(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"imports {m}" for m in modules if m in ("argparse", "json")]
    functions = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    if "main" in functions:
        found.append("defines main()")
    if not any(name.startswith("test_") for name in functions):
        found.append("defines no test_*")
    if any(
        isinstance(node, ast.If) and "__main__" in ast.dump(node.test)
        for node in tree.body
    ):
        found.append("has an `if __name__ == '__main__'` block")
    return found


def test_a_bench_file_has_no_front_end_but_pytest():
    assert BENCHES
    residue = [
        f"{path.name}: {what}"
        for path in BENCHES
        for what in _front_end_residue(ast.parse(path.read_text()))
    ]
    assert not residue, "\n".join(residue)
    assert not (ROOT / "benchmarks" / "baselines").exists()


#: A quoted ``python ...`` / ``pytest ...`` command, up to the closing
#: backtick, a trailing comment or the end of its line.
COMMAND = re.compile(r"\b(?:python3?|pytest) [^`#\n]*")


def _problems(command: str) -> list[str]:
    tokens = command.split()
    problems = []
    for token in tokens[1:]:
        token = token.split("::")[0].strip("'\".,;:()")
        if "<" in token or token.startswith(("/", "$", "-")):
            continue  # A placeholder, a path outside the repo, a flag.
        if not token.endswith((".py", "/")):
            continue
        if not (ROOT / token).exists():
            problems.append(f"no file {token}")
        elif Path(token).name.startswith("bench_") and "pytest" not in tokens:
            problems.append(f"{token} has no front end but pytest")
    return problems


def test_every_quoted_command_names_files_that_exist():
    stale = [
        f"{document}: `{command.strip()}`: {problem}"
        for document in DOCUMENTS
        for command in COMMAND.findall((ROOT / document).read_text())
        for problem in _problems(command)
    ]
    assert not stale, "\n".join(stale)
