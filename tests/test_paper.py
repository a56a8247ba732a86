"""The paper's grid has one copy of the numbers and one driver.

``repro.paper`` holds the paper's Table 2–5 cells and ``grid()``
measures them; ``tools/calibrate.py`` prints that grid and the bench
estate asserts the paper's shapes on it.  The ledger under
``benchmarks/ledger/`` is self-contained: it keeps its own copy of six
cells and must not load ``repro.paper``, so that copy is pinned here.
"""

import os
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
