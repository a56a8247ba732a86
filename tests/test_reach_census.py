"""The reach allow-list, checked without running a driver.

``python tools/reach.py`` judges reach (it runs every judging command CI
runs, so it is its own CI job).  This census judges the list it reads:
every entry names a function defined under ``src/``, carries one of the
four kinds, and a ``tested-only`` entry names a tier-1 test that pytest
collects — the test that keeps the path honest until a campaign does.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from tests.reach_allow import ALLOWED

ROOT = Path(__file__).resolve().parents[1]
#: The list only shrinks from here: a new entry must push one out.
MAX_ENTRIES = 65


def _reach_tool():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_a_src_function_with_a_kind():
    reach = _reach_tool()
    defined = {name for name, _ in reach.census().values()}
    assert not sorted(set(ALLOWED) - defined)
    assert not [name for name, (kind, _) in ALLOWED.items() if kind not in reach.KINDS]
    assert all(note for _, note in ALLOWED.values())
    assert len(ALLOWED) <= MAX_ENTRIES


def test_every_tested_only_entry_names_a_collected_tier1_test():
    ids = sorted({note for kind, note in ALLOWED.values() if kind == "tested-only"})
    assert ids and all(test_id.startswith("tests/") and "::" in test_id for test_id in ids)
    done = subprocess.run(
        # The project's addopts carry one -q already, and -qq prints no ids.
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-o", "addopts=", "-m", "not huge",
         "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    collected = set(done.stdout.split())
    assert not [test_id for test_id in ids if test_id not in collected]
