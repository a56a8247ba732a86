#!/usr/bin/env python3
"""Check or re-record the goldens of :data:`GOLDENS`::

    python tools/golden.py check [NAME ...]
    python tools/golden.py update NAME --pr N --stage "<what moved>"

Each golden is ``tests/protocols/data/<name>_golden.json``:
``{"cells": {key: value}, "log": [{"pr": N, "stage": ...}]}``.
``check`` re-measures each golden (all by default), names the cells
that differ and exits 1 if any does.  ``update`` rewrites one golden
from the current code and appends ``(pr, stage)`` to its log; it
refuses a second entry for one PR, since a golden is re-recorded at
most once per change.  Runs from any directory.

:data:`GOLDENS` names what "nothing simulated moved" must leave alone,
and how to measure it: every :func:`repro.paper.grid` cell by ``repr``,
each cell of the chaos (``--quick --cc all``), failure and isolation
``--quick`` reports as canonical JSON, and the examples' stdout.

Beside them, :func:`wire_digest` reduces a run's wire behaviour to a
sha256 over every captured segment's addressing, sequence numbers,
flags, window and length, in time order.  The simulator and fault
injector are deterministic, so the digest of a
:class:`~repro.check.campaign.CellSpec` is a function of the code alone:
any change to segmentation, timing or congestion control moves it.
``tests/protocols/data/reno_wire_golden.json`` pins the digests
captured *before* the congestion-control extraction, and
``tests/protocols/test_cc_regression.py`` holds ``cc="reno"`` to them.
The tests load this file by path.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "protocols" / "data"
sys.path.insert(0, str(ROOT / "src"))

from repro.check.__main__ import AXES  # noqa: E402
from repro.check.campaign import cell_evidence, run_campaign  # noqa: E402
from repro.paper import grid  # noqa: E402
from repro.protocols.tcp.cc import CC_ALGORITHMS  # noqa: E402


def wire_digest(evidence) -> str:
    """sha256 over the decoded wire trace of one run's evidence."""
    h = hashlib.sha256()
    for s in evidence.segments:
        h.update(
            f"{s.time!r}|{s.src_ip}|{s.dst_ip}|{s.sport}|{s.dport}|"
            f"{s.seq}|{s.ack}|{s.flags}|{s.window}|{s.data_len}\n".encode()
        )
    return h.hexdigest()


def golden_cell_key(spec) -> str:
    """The stable key one spec gets in a golden-digest file."""
    return (
        f"{spec.topology}/{spec.organization}/seed{spec.seed}"
        f"/drop{spec.drop_rate}/corrupt{spec.corrupt_rate}"
    )


def digest_cell(spec) -> tuple[str, int]:
    """Run ``spec`` deterministically; return (digest, segment count)."""
    evidence = cell_evidence(spec)
    return wire_digest(evidence), len(evidence.segments)


# ----------------------------------------------------------------------
# The grid, report and example goldens
# ----------------------------------------------------------------------


def _axis(name: str, **options):
    def cells(root) -> dict:
        """Each cell of the axis's quick report, by label, as its JSON reads back."""
        axis = AXES[name]
        report = run_campaign(axis, axis.plan(True, **options))
        return {cell.spec.label: json.loads(json.dumps(cell.as_dict())) for cell in report.cells}

    return cells


def _grid(root) -> dict:
    return {"/".join(map(str, key)): repr(row) for key, row in grid().items()}


def _examples(root) -> dict:
    """Each example's stdout lines, run as its own process."""
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src")))
    return {
        path.name: subprocess.run(
            [sys.executable, path], capture_output=True, text=True, env=env, check=True
        ).stdout.splitlines()
        for path in sorted(Path(root, "examples").glob("*.py"))
    }


#: name -> the function of the repository root measuring its cells.
GOLDENS = {
    "grid": _grid,
    "chaos": _axis("chaos", ccs=tuple(CC_ALGORITHMS)),
    "failure": _axis("failure"),
    "isolation": _axis("isolation"),
    "examples": _examples,
}


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
