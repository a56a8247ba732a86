"""The byte-identical guarantee: ``cc="reno"`` produces exactly the
wire trace the pre-extraction monolithic CongestionControl produced.

``data/reno_wire_golden.json`` holds sha256 digests of the decoded
wire trace for every cell of the netcheck quick campaign, captured on
the commit *before* congestion control became pluggable.  Because the
simulator, fault injector, and payload generation are all seeded and
deterministic, any behavioural drift in the refactored Reno — one
segment sent earlier, one window advertised differently — changes a
digest and fails this test."""

import json
from pathlib import Path

import pytest

from repro.check.campaign import quick_specs
from tests.tools import tool

GOLDEN_TOOL = tool("golden")
digest_cell, golden_cell_key = GOLDEN_TOOL.digest_cell, GOLDEN_TOOL.golden_cell_key

GOLDEN_PATH = Path(__file__).parent / "data" / "reno_wire_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_quick_campaign():
    specs = quick_specs(seed=GOLDEN["seed"])
    assert {golden_cell_key(s) for s in specs} == set(GOLDEN["cells"])


@pytest.mark.parametrize(
    "spec",
    quick_specs(seed=GOLDEN["seed"]),
    ids=lambda s: golden_cell_key(s).replace("/", "-"),
)
def test_reno_wire_trace_matches_pre_refactor_golden(spec):
    assert spec.cc == "reno"  # The campaign default is the reference.
    digest, segments = digest_cell(spec)
    recorded = GOLDEN["cells"][golden_cell_key(spec)]
    assert segments == recorded["segments"], (
        f"{golden_cell_key(spec)}: {segments} segments on the wire, "
        f"pre-refactor stack produced {recorded['segments']}"
    )
    assert digest == recorded["digest"], (
        f"{golden_cell_key(spec)}: wire trace diverged from the "
        "pre-extraction congestion control"
    )
