"""The conformance checker must be bit-for-bit deterministic under the
batched bucket-heap engine.

The chaos campaign's whole value is seeded replay: a violation report
names a (spec, seed) cell and anyone can re-run it.  Same-timestamp
event batching changed how the engine drains the schedule, so these
tests pin that two independent runs of a cell — clean or sabotaged —
produce identical JSON, and that replay-from-report still matches.
"""

import json

from repro.check.campaign import (
    CHAOS,
    CampaignReport,
    quick_specs,
    replay_cell,
    run_campaign,
    run_cell,
)

# The campaign tests' deliberately broken stack: premature fast
# retransmit on the first duplicate ACK, guaranteed violations on seed 1.
from .test_campaign import SABOTAGED


def test_quick_campaign_runs_are_bit_identical():
    first = run_campaign(CHAOS, quick_specs(seed=7))
    second = run_campaign(CHAOS, quick_specs(seed=7))
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


def test_sabotaged_cell_violations_are_bit_identical():
    first = run_cell(SABOTAGED)
    second = run_cell(SABOTAGED)
    assert first.violations  # The premature-retransmit bug fires...
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


def test_replay_from_report_matches_under_batched_engine():
    result = run_cell(SABOTAGED)
    report = json.loads(json.dumps(CampaignReport("chaos", [result]).as_dict()))
    replayed = replay_cell(CHAOS, report["cells"][0])
    assert replayed.as_dict() == report["cells"][0]
