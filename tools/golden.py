#!/usr/bin/env python3
"""Check or re-record the goldens of ``repro.check.golden.GOLDENS``::

    python tools/golden.py check [NAME ...]
    python tools/golden.py update NAME --pr N --stage "<what moved>"

Each golden is ``tests/protocols/data/<name>_golden.json``:
``{"cells": {key: value}, "log": [{"pr": N, "stage": ...}]}``.
``check`` re-measures each golden (all by default), names the cells
that differ and exits 1 if any does.  ``update`` rewrites one golden
from the current code and appends ``(pr, stage)`` to its log; it
refuses a second entry for one PR, since a golden is re-recorded at
most once per change.  Runs from any directory.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "protocols" / "data"
sys.path.insert(0, str(ROOT / "src"))

from repro.check.golden import GOLDENS  # noqa: E402


def differing(recorded: dict, fresh: dict) -> list:
    """The keys whose cells differ, or that only one side has."""
    return sorted(k for k in recorded.keys() | fresh.keys() if recorded.get(k) != fresh.get(k))


def _check(names) -> int:
    moved = 0
    for name in names or GOLDENS:
        recorded = json.loads((DATA / f"{name}_golden.json").read_text())["cells"]
        keys = differing(recorded, GOLDENS[name](ROOT))
        print(f"{name}: {len(keys)} cell(s) differ")
        for key in keys:
            print(f"  {key}")
        moved += len(keys)
    return 1 if moved else 0


def _update(name: str, pr: int, stage: str) -> int:
    path = DATA / f"{name}_golden.json"
    old = json.loads(path.read_text()) if path.exists() else {"cells": {}, "log": []}
    if any(entry["pr"] == pr for entry in old["log"]):
        print(f"{path.name} was already re-recorded by PR {pr}", file=sys.stderr)
        return 1
    cells = GOLDENS[name](ROOT)
    log = [*old["log"], {"pr": pr, "stage": stage}]
    path.write_text(json.dumps({"cells": cells, "log": log}, indent=1, sort_keys=True) + "\n")
    moved = differing(old["cells"], cells)
    print(f"{name}: re-recorded, {len(moved)} cell(s) moved")
    for key in moved:
        print(f"  {key}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/golden.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    check_p = sub.add_parser("check", help="name the cells that differ from each golden")
    check_p.add_argument("names", nargs="*", help=f"any of {', '.join(GOLDENS)} (default: all)")
    update_p = sub.add_parser("update", help="re-record one golden and log why")
    update_p.add_argument("name", choices=GOLDENS)
    update_p.add_argument("--pr", type=int, required=True)
    update_p.add_argument("--stage", required=True, help="what moved, and where")
    args = parser.parse_args(argv)
    if args.command == "update":
        return _update(args.name, args.pr, args.stage)
    unknown = set(args.names) - set(GOLDENS)
    if unknown:
        parser.error(f"no golden named {', '.join(sorted(unknown))}")
    return _check(args.names)


if __name__ == "__main__":
    raise SystemExit(main())
