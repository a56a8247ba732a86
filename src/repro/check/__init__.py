"""Protocol-conformance checking and the campaign engine.

The paper's correctness claim — a user-level TCP that behaves like the
kernel's under loss, corruption, duplication, and reordering — is only
as good as what is *checked*.  This package closes the loop: a run's
wire trace, fault log, and socket transcripts become
:class:`~repro.check.evidence.RunEvidence`, the invariant checkers in
:mod:`~repro.check.invariants` judge it, and :mod:`~repro.check.campaign`
runs, reports, replays and shrinks the cells of every campaign axis.

Quick start::

    PYTHONPATH=src python -m repro.check run --axis chaos --quick
"""

from .evidence import FaultEvent, RunEvidence, WireSegment, collect_evidence
from .invariants import (
    CheckResult,
    INVARIANTS,
    Violation,
    check_all,
)
from .campaign import (
    CampaignReport,
    CellResult,
    CellSpec,
    replay_cell,
    run_campaign,
    run_cell,
    shrink_cell,
)

__all__ = [
    "CampaignReport",
    "CellResult",
    "CellSpec",
    "CheckResult",
    "FaultEvent",
    "INVARIANTS",
    "RunEvidence",
    "Violation",
    "WireSegment",
    "check_all",
    "collect_evidence",
    "replay_cell",
    "run_campaign",
    "run_cell",
    "shrink_cell",
]
