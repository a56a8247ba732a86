"""Process set-up the measurements depend on.  Imports nothing of the
program at module level: it is what times ``import repro``."""

from __future__ import annotations

import importlib
import os
import platform
import sys
import time
from pathlib import Path

#: The checkout root: this file is ``<root>/benchmarks/ledger/env.py``.
ROOT = Path(__file__).resolve().parents[2]
HASHSEED = "0"
#: What the benchmark imports from the program; ``repro`` itself pulls
#: in nearly all of it.
PROGRAM_MODULES = (
    "repro",
    "repro.metrics",
    "repro.net.fabric",
    "repro.netstat",
    "repro.obs",
    "repro.protocols.tcp",
    "repro.protocols.udp",
    "repro.sim",
    "repro.testbed",
)
IMPORT_ROUNDS = 5


def pin_hashseed() -> None:
    """Re-exec once with ``PYTHONHASHSEED`` pinned.

    str hashing decides set and dict-of-str iteration order and with it
    a little allocation and timing; it must be fixed before the
    interpreter starts, hence the exec (same pid, no child process).
    """
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def add_program_path() -> None:
    """Import the program from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"ledger: no program to measure: {src / 'repro'} is missing")
    for entry in (str(src), str(ROOT)):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)


def time_program_import() -> list:
    """CPU seconds of ``IMPORT_ROUNDS`` fresh imports of the program.

    Each round drops ``repro*`` from ``sys.modules`` first; call before
    anything holds a reference into the program.  The last import stays.
    """
    samples = []
    for _ in range(IMPORT_ROUNDS):
        for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        start = time.process_time()
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        samples.append(time.process_time() - start)
    origin = Path(sys.modules["repro"].__file__).resolve()
    if ROOT not in origin.parents:
        raise SystemExit(f"ledger: imported repro from {origin}, outside {ROOT}")
    return samples


def describe() -> dict:
    """Where and under what load this run happened."""
    try:
        loadavg = list(os.getloadavg())
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
