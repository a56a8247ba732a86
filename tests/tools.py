"""The repository's ``tools/`` scripts, loaded by path: they are
scripts, not a package, and a test judges with what they define."""

import importlib.util
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@cache
def tool(name: str):
    """``tools/<name>.py`` as a module, executed once per session."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
