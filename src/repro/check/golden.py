"""Goldens: byte-identical regression evidence.

A run's wire behaviour is reduced to a sha256 over every captured
segment's addressing, sequence numbers, flags, window, and length, in
time order.  Because the simulator and fault injector are fully
deterministic, the digest of a :class:`~repro.check.campaign.CellSpec`
is a function of the code alone — any change to segmentation, timing,
or congestion control moves it.  ``tests/protocols/data/
reno_wire_golden.json`` pins the digests captured *before* the
congestion-control extraction; the regression test holds ``cc="reno"``
to them, proving the pluggable stack is byte-identical on the wire.

Beside it, :data:`GOLDENS` names what "nothing simulated moved" must
leave alone, and how to measure it: every :func:`repro.paper.grid`
cell by ``repr``, each cell of the chaos (``--quick --cc all``),
failure and isolation ``--quick`` reports as canonical JSON, and the
examples' stdout.  ``tools/golden.py`` checks and re-records them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from ..protocols.tcp.cc import CC_ALGORITHMS
from .campaign import cell_evidence, run_campaign


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
        from .__main__ import AXES

        axis = AXES[name]
        report = run_campaign(axis, axis.plan(True, **options))
        return {cell.spec.label: json.loads(json.dumps(cell.as_dict())) for cell in report.cells}

    return cells


def _grid(root) -> dict:
    from ..paper import grid

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
