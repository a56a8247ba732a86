"""The paper's grid has one copy of the numbers and one driver.

``repro.paper`` holds the paper's Table 2–5 cells and ``grid()``
measures them; ``tools/calibrate.py`` prints that grid and the bench
estate asserts the paper's shapes on it.  The ledger under
``benchmarks/ledger/`` is self-contained: it keeps its own copy of six
cells and must not load ``repro.paper``, so that copy is pinned here.
EXPERIMENTS.md prints the 47 cells, and they are pinned to the grid
golden here too.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger import env, workloads
from repro import paper

ROOT = Path(__file__).resolve().parents[1]


def _run(args: list, **kwargs) -> str:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, **kwargs)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_calibrate_prints_all_47_cells_from_any_directory(tmp_path):
    clean = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = _run([str(ROOT / "tools" / "calibrate.py")], cwd=tmp_path, env=clean)
    rows = [line for line in out.splitlines() if " measured " in line]
    assert len(rows) == 47, out


def test_the_ledgers_six_paper_cells_equal_the_papers():
    nets = workloads.NETWORKS
    assert workloads.PAPER == {
        "bulk": {net: paper.TABLE2[net, "userlib"][4096] for net in nets},
        "pingpong": {net: paper.TABLE3[net, "userlib"][1] for net in nets},
        "churn": {net: paper.TABLE4[net, "userlib"] for net in nets},
    }


def test_nothing_the_ledger_imports_loads_repro_paper():
    modules = (*env.PROGRAM_MODULES, "benchmarks.ledger.harness")
    probe = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print('repro.paper' in sys.modules)\n"
    )
    out = _run(["-c", probe], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.strip() == "False"


#: How EXPERIMENTS.md's tables name a grid cell's network, system and
#: Table 4 breakdown component.
NETWORKS = {"Ethernet": "ethernet", "AN1": "an1"}
SYSTEMS = {"Ultrix": "ultrix", "Mach/UX": "mach-ux", "ours": "userlib"}
COMPONENTS = {
    "to the remote peer and back": "remote_and_back",
    "non-overlapped outbound": "non_overlapped_outbound",
    "user-channel setup": "channel_setup",
    "app ↔ server Mach IPC": "app_server_ipc",
    "TCP state transfer": "state_transfer",
}


def _table(heading: str) -> list[list[str]]:
    """The first markdown table under ``heading``, header row first."""
    lines = (ROOT / "EXPERIMENTS.md").read_text().split(f"\n{heading}", 1)[1].splitlines()
    table = []
    for line in lines[1:]:
        if not line.startswith("|"):
            if table:
                break
            continue
        if set(line) - set("|-: "):
            table.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return table


def _documented_cells():
    """(grid golden key, paper text, measured text) for each printed cell."""
    for heading, name in (("## Table 2", "table2"), ("## Table 3", "table3")):
        header, *rows = _table(heading)
        for network, system, *cells in rows:
            key = f"{name}/{NETWORKS[network]}/{SYSTEMS[system]}"
            for point, cell in zip(header[2:], cells):
                yield f"{key}/{point.split()[0]}", *cell.split(" / ")
    for network, system, paper_text, measured in _table("## Table 4")[1:]:
        yield f"table4/{NETWORKS[network]}/{SYSTEMS[system]}/None", paper_text, measured
    for label, paper_text, measured in _table("### Table 4 breakdown")[1:]:
        component = next(key for prefix, key in COMPONENTS.items() if label.startswith(prefix))
        yield f"table4-breakdown/ethernet/userlib/{component}", paper_text, measured
    for label, paper_text, measured in _table("## Table 5")[1:]:
        yield f"table5/{NETWORKS[label.split(':')[0]]}/userlib/None", paper_text, measured


def test_experiments_tables_equal_the_grid_golden():
    """Each Table 2–5 cell EXPERIMENTS.md prints is the grid golden's
    cell: the measured value rounded to the digits printed, the paper's
    value exactly.  No simulation runs: when ``tools/golden.py update
    grid`` moves a cell, the document moves with it."""
    golden = json.loads((ROOT / "tests/protocols/data/grid_golden.json").read_text())["cells"]
    rows = {
        key: re.fullmatch(r"Row\(measured=(.*), paper=(.*), unit='.*'\)", text).groups()
        for key, text in golden.items()
    }
    seen, wrong = set(), []
    for key, paper_text, measured in _documented_cells():
        seen.add(key)
        golden_measured, golden_paper = map(float, rows[key])
        digits = len(measured.partition(".")[2])
        if f"{golden_measured:.{digits}f}" != measured or float(paper_text) != golden_paper:
            wrong.append(f"{key}: documented {paper_text} / {measured}, golden {rows[key]}")
    assert not wrong, "\n".join(wrong)
    assert seen == set(golden), sorted(set(golden) ^ seen)
