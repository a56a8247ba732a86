"""The bench census: one entry point per bench, one gate per fact.

A ``benchmarks/bench_*.py`` is constants, run functions and ``test_*``
functions; pytest is its only front end (``pytest benchmarks`` is one
CI step).  A private ``main()`` grows its own flags, its own quick arm
and its own JSON baseline with hand-picked slack, and then every perf
PR refreshes a second copy of a number a test already pins — DESIGN.md
"Gates" says where each kind of fact is asserted instead.  The second
half keeps the documents honest about it: a command they quote must
name files and modules that exist, and must run a bench through pytest.

Last, the doc census: README.md, DESIGN.md and EXPERIMENTS.md
describe HEAD.  Every backticked path must be a tracked
file, every ``repro.*``/``benchmarks.*`` module must import, and every
code identifier must be defined in the sources, by Python or by the
stdlib; every section a file cites must exist; every ROADMAP item they
cite must be open; and DESIGN.md and EXPERIMENTS.md stay under their
caps.  What was replaced, and how it measured, lives in CHANGES.md and
git.
"""

import ast
import builtins
import fnmatch
import importlib
import importlib.util
import json
import keyword
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))
DOCUMENTS = (
    ".github/workflows/ci.yml",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
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


#: Where a ``python -m`` module of this repo's two packages lives.
MODULE_ROOTS = {"repro": ROOT / "src", "benchmarks": ROOT}


def _module_exists(module: str) -> bool:
    """``python -m module`` runs a file: ``module.py`` or a package's
    ``__main__.py``."""
    path = MODULE_ROOTS[module.split(".")[0]].joinpath(*module.split("."))
    return path.with_suffix(".py").is_file() or (path / "__main__.py").is_file()


def _problems(command: str) -> list[str]:
    tokens = command.split()
    problems = []
    if "-m" in tokens[:-1]:
        module = tokens[tokens.index("-m") + 1].strip("'\".,;:()")
        if module.split(".")[0] in MODULE_ROOTS and not _module_exists(module):
            problems.append(f"no module {module}")
    for token in tokens[1:]:
        token = token.split("::")[0].strip("'\".,;:()")
        if "<" in token or token.startswith(("/", "$", "-")):
            continue  # A placeholder, a path outside the repo, a flag.
        if not token.endswith((".py", "/")):
            continue
        if not (ROOT / token).exists():
            problems.append(f"no file {token}")
        elif ROOT / token in BENCHES and "pytest" not in tokens:
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


# ----------------------------------------------------------------------
# The doc census: the documents describe HEAD
# ----------------------------------------------------------------------

#: The documents that describe the program: the top-level ones of
#: :data:`DOCUMENTS` (README.md, DESIGN.md, EXPERIMENTS.md).
DESCRIBED = tuple(document for document in DOCUMENTS if "/" not in document)

#: Longest a document may grow.  History belongs in CHANGES.md and git.
CAPS = {"DESIGN.md": 900, "EXPERIMENTS.md": 800}

#: Where the names a document cites are defined.
SOURCES = ("src/", "tests/", "tools/", "benchmarks/")


def _tracked() -> list[str]:
    """The repo's files, as ``git ls-files`` lists them; outside a git
    checkout (an exported tree), every file not under a dot directory
    or a ``__pycache__``."""
    try:
        listed = subprocess.run(["git", "ls-files"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        listed = None
    if listed is not None and listed.returncode == 0 and listed.stdout:
        return listed.stdout.split()
    return [
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*")
        if path.is_file()
        and not any(part.startswith((".", "__pycache__")) for part in path.relative_to(ROOT).parts)
    ]


TRACKED = _tracked()

#: Every tracked file and directory, as a path from the root.
PATHS = set(TRACKED) | {str(parent) for path in TRACKED for parent in Path(path).parents[:-1]}
DIRECTORIES = {part for path in TRACKED for part in Path(path).parts[:-1]}
SUFFIXES = (".py", ".json", ".md", ".yml", ".toml")

#: A backticked span, and the code identifiers among them: ``Name``,
#: ``Name.attr``, ``name()``, ``name(args)`` and a keyword ``name=``.
CODE = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
IDENTIFIER = re.compile(rf"(?P<name>{NAME.pattern})(?:\(.*\))?=?")


def _stores(node: ast.AST, owner: str | None = None) -> set[str]:
    """The names ``node`` assigns, or with ``owner`` the attributes it
    assigns on that name (``self.x = ...``)."""
    if owner is None:
        return {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        }
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == owner
    }


def _class_members(node: ast.ClassDef) -> set[str]:
    """What a class defines: its body's methods, classes, fields and
    ``__slots__``, and what its methods assign on ``self`` or ``cls``."""
    members = _stores(node, "self") | _stores(node, "cls")
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(statement.name)
        else:
            members |= _stores(statement) | {
                sub.value
                for sub in ast.walk(statement)
                if isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and NAME.fullmatch(sub.value)
            }
    return members


def _definitions():
    """Every name the sources define; each class's members and bases;
    the attributes a class decorator sets on ``cls``; the stdlib
    modules the sources import."""
    names = {Path(path).stem for path in TRACKED} | DIRECTORIES
    classes: dict[str, tuple[set, set]] = {}
    injected, stdlib = set(), set()
    for path in TRACKED:
        if not (path.endswith(".py") and path.startswith(SOURCES)):
            continue
        for node in ast.walk(ast.parse((ROOT / path).read_text())):
            if isinstance(node, ast.ClassDef):
                members, bases = classes.setdefault(node.name, (set(), set()))
                members |= _class_members(node)
                bases |= {ast.unparse(base).split("[")[0].split(".")[-1] for base in node.bases}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                injected |= _stores(node, "cls")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[0])
                if node.name.split(".")[0] in sys.stdlib_module_names:
                    stdlib.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module in sys.stdlib_module_names:
                stdlib.add(node.module)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if NAME.fullmatch(node.value):
                    names.update(node.value.split("."))  # A counter key, a workload.
    return names, classes, injected, stdlib


NAMES, CLASSES, INJECTED, STDLIB_IMPORTED = _definitions()

#: A name the program does not define but Python does: a builtin or
#: stdlib module, or an attribute of a builtin type or of a stdlib
#: module the sources import (``append``, ``unpack_from``).
PYTHON_NAMES = set(sys.stdlib_module_names) | set(dir(builtins)) | {
    attr
    for holder in [
        *(value for value in vars(builtins).values() if isinstance(value, type)),
        *map(importlib.import_module, sorted(STDLIB_IMPORTED)),
    ]
    for attr in dir(holder)
}
METRICS = {
    metric["name"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


def _python_has(dotted: str) -> bool:
    """``int.from_bytes``, ``functools.partial``: a builtin, or a stdlib
    module already loaded or imported by the sources, and the
    attributes it is read through."""
    head, *rest = dotted.split(".")
    if head in sys.modules or head in STDLIB_IMPORTED:
        thing = importlib.import_module(head)
    elif hasattr(builtins, head):
        thing = getattr(builtins, head)
    else:
        return False
    for part in rest:
        if not hasattr(thing, part):
            return False
        thing = getattr(thing, part)
    return True


def _class_has(cls: str, attr: str, seen: tuple = ()) -> bool:
    """Whether a class of the sources, or a base it names, has ``attr``."""
    if hasattr(object, attr):
        return True
    if cls in CLASSES:
        members, bases = CLASSES[cls]
        return attr in members or any(
            _class_has(base, attr, seen + (cls,)) for base in bases if base not in seen
        )
    if cls == "NamedTuple":
        return hasattr(tuple, attr) or attr in ("_replace", "_fields", "_asdict", "_make")
    base = getattr(builtins, cls, None) or getattr(typing, cls, None)
    return base is None or hasattr(base, attr)  # A base outside both is not judged.


def _path_problem(token: str) -> str | None:
    path, _, test = token.partition("::")
    path = path.rstrip("/")
    patterns = (path, f"*/{path}")
    if not any(fnmatch.fnmatch(known, pattern) for known in PATHS for pattern in patterns):
        return "no such file"
    test = test.split("[")[0]
    return f"no test {test}" if test and test.split("::")[-1] not in NAMES else None


def _module_prefix(parts: list[str]) -> int:
    """How many leading parts of a dotted name name a module."""
    found = 0
    for end in range(1, len(parts) + 1):
        try:
            if importlib.util.find_spec(".".join(parts[:end])) is None:
                break
        except ModuleNotFoundError:  # A parent that is a module, not a package.
            break
        found = end
    return found


def _module_names(module: str) -> set[str]:
    """The names a module of this repo defines or imports at top level."""
    origin = importlib.util.find_spec(module).origin
    names = set()
    for node in ast.parse(Path(origin).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        else:
            names |= _stores(node)
    return names


def _name_problem(name: str) -> str | None:
    parts = name.split(".")
    if name in METRICS or keyword.iskeyword(name) or _python_has(name):
        return None
    if parts[0] in MODULE_ROOTS:
        found = _module_prefix(parts)
        if not found:
            return "no such module"
        module, parts = ".".join(parts[:found]), parts[found:]
        if parts and parts[0] not in _module_names(module):
            return f"{module} defines no {parts[0]}"
    elif len(parts) > 1 and parts[0] in CLASSES:
        if parts[1] not in INJECTED and not _class_has(parts[0], parts[1]):
            return f"{parts[0]} has no {parts[1]}"
        parts = parts[2:]
    missing = [part for part in parts if part not in NAMES and part not in PYTHON_NAMES]
    return f"{', '.join(missing)} defined nowhere" if missing else None


def _token_problem(token: str) -> str | None:
    """Why a backticked token names nothing at HEAD, or None.  Flags,
    numbers, placeholders and shell text are not names."""
    path = token.split("::")[0]
    if not re.search(r"[\s<>$]", token) and (
        path.endswith((*SUFFIXES, "/")) or "/" in path and path.split("/")[0] in DIRECTORIES
    ):
        return _path_problem(token)
    match = IDENTIFIER.fullmatch(token)
    return _name_problem(match["name"]) if match else None


def test_every_name_the_documents_cite_resolves():
    stale = [
        f"{document}:{number}: `{token}`: {problem}"
        for document in DESCRIBED
        for number, line in enumerate((ROOT / document).read_text().splitlines(), 1)
        for token in CODE.findall(line)
        if (problem := _token_problem(token))
    ]
    assert not stale, "\n".join(stale)


def _flat(text: str) -> str:
    """A file's text with comment leaders and line breaks folded, so a
    citation wrapped across comment lines reads as one."""
    return " ".join(re.sub(r"^\s*(?:#:?|//)\s?", "", line) for line in text.splitlines())


def _headings(document: str) -> set[str]:
    """``## 6. Key design decisions`` and ``### Leases (`repro/...`)``
    are cited as "Key design decisions" and "Leases"."""
    found = set()
    for line in (ROOT / document).read_text().splitlines():
        if line.startswith("#") and (title := line.lstrip("#").strip()):
            title = re.sub(r"^\d+\.\s+", "", title)
            found |= {title, re.sub(r"\s+\(.*\)$", "", title)}
    return found


#: ``DESIGN.md "Counting"``, ``DESIGN.md, "Leases"``, `` `DESIGN.md` "Gates" ``.
CITATION = re.compile(r"\b(DESIGN|EXPERIMENTS)\.md`?,?\s+\"([A-Z][^\"]*)\"")


def test_every_section_a_file_cites_exists():
    headings = {name: _headings(f"{name}.md") for name in ("DESIGN", "EXPERIMENTS")}
    files = [path for path in TRACKED if path.startswith(SOURCES)] + list(DOCUMENTS)
    stale = sorted(
        f'{path}: {name}.md "{" ".join(title.split())}"'
        for path in files
        if path.endswith((".py", ".md", ".yml"))
        for name, title in CITATION.findall(_flat((ROOT / path).read_text()))
        if " ".join(title.split()) not in headings[name]
    )
    assert not stale, "\n".join(stale)


def _open_items() -> dict[str, str]:
    """ROADMAP.md's open items, number → text."""
    text = (ROOT / "ROADMAP.md").read_text()
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    pieces = re.split(r"^(\d+)\. ", section, flags=re.M)
    return dict(zip(pieces[1::2], pieces[2::2]))


#: ``ROADMAP item 1``, ``ROADMAP's item 2(a)``, ``ROADMAP.md item 6(iii)``.
ITEM = re.compile(r"ROADMAP(?:\.md)?(?:'s)? items? (\d+)(\([a-z]+\))?")


def test_every_roadmap_item_the_documents_cite_is_open():
    items = _open_items()
    stale = [
        f"{document}: ROADMAP item {number}{sub}"
        for document in DESCRIBED
        for number, sub in ITEM.findall(_flat((ROOT / document).read_text()))
        if number not in items or (sub and f"**{sub}" not in items[number])
    ]
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("document", sorted(CAPS))
def test_a_document_stays_under_its_cap(document):
    lines = len((ROOT / document).read_text().splitlines())
    assert lines <= CAPS[document], f"{document}: {lines} lines, cap {CAPS[document]}"
