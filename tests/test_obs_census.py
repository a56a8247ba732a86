"""The obs plane census: one switch.

The plane is on exactly when ``repro.obs.SESSION`` is set, and the
session owns the span recorder, the profiler and the histograms.  The
four module globals it replaced (``spans.RECORDER``,
``profile.PROFILER``, ``hist.REGISTRY`` and ``buf.SPAN_BINDER``) were
four switches that could disagree; outside ``obs/`` no module may name
them again, and what a module reads off the ``repro.obs`` package is
the session or the switch itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RETIRED = {"RECORDER", "PROFILER", "SPAN_BINDER"}
#: What a module outside ``obs/`` may read off the package.
PACKAGE_READS = {"SESSION", "enable", "disable"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith("obs/"):
            yield relative, ast.parse(path.read_text())


def _obs_aliases(tree) -> set:
    """Local names bound to the ``repro.obs`` package."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "repro"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "obs")
    return aliases


def test_no_module_outside_obs_names_a_retired_switch():
    strays = []
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
                if name == "REGISTRY" and isinstance(node.value, ast.Name) and node.value.id.endswith("hist"):
                    strays.append(f"{relative}:{node.lineno} hist.REGISTRY")
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in RETIRED:
                strays.append(f"{relative}:{getattr(node, 'lineno', '?')} {name}")
    assert not strays, "a second obs switch:\n" + "\n".join(strays)


def test_modules_read_only_the_session_off_the_obs_package():
    strays = []
    importers = 0
    for relative, tree in _modules():
        aliases = _obs_aliases(tree)
        importers += bool(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "obs" or node.module.startswith(("obs.", "repro.obs"))
            ):
                strays.append(f"{relative}:{node.lineno} imports from {node.module}")
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr not in PACKAGE_READS
            ):
                strays.append(f"{relative}:{node.lineno} reads obs.{node.attr}")
    assert not strays, "read the plane through obs.SESSION:\n" + "\n".join(strays)
    # The census saw the datapath: eleven instrumented modules plus
    # metrics and netstat.
    assert importers == 13
