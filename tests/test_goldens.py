"""The "unchanged" test: the grid, the three ``--quick`` campaign
reports and the examples' output are pinned in goldens
(``GOLDENS`` in ``tools/golden.py``), and a change that moves any of them
fails here naming the cells that moved.  A golden is re-recorded with
``python tools/golden.py update NAME --pr N --stage "<what moved>"``,
at most once per change: its log keeps one entry per PR."""

import json
from pathlib import Path

import pytest

from tests.tools import tool

GOLDENS = tool("golden").GOLDENS
ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "protocols" / "data"


def _golden(name: str) -> dict:
    return json.loads((DATA / f"{name}_golden.json").read_text())


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_unchanged(name):
    recorded, fresh = _golden(name)["cells"], GOLDENS[name](ROOT)
    moved = sorted(k for k in recorded.keys() | fresh.keys() if recorded.get(k) != fresh.get(k))
    assert moved == [], f"{name}_golden.json: these cells moved"


@pytest.mark.parametrize("name", GOLDENS)
def test_no_golden_log_has_two_entries_for_one_pr(name):
    log = _golden(name)["log"]
    prs = [entry["pr"] for entry in log]
    assert log and sorted(set(prs)) == prs, f"{name}: log {log}"
    assert all(entry["stage"].strip() for entry in log)
