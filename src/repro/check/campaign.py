"""The chaos campaign: seeded fault grids swept over topologies and
protocol organizations, every cell judged by every invariant.

A **cell** is one fully specified run — topology, organization, fault
rates, seed, workload — captured in a frozen :class:`CellSpec`, which
is also the replay token: because every source of randomness (fault
injector, payloads) is seeded from the spec and the simulator is
deterministic, re-running a spec reproduces the run bit-for-bit.  A
campaign's JSON report therefore records, for each violation, exactly
the tuple needed to bring the failure back to life
(:func:`replay_cell`), and :func:`shrink_cell` bisects a failing spec
down to the smallest payload and lowest fault rates that still fail,
dumping the decoded wire trace around the violation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from ..net.faults import FaultInjector
from ..protocols.tcp import TcpConfig
from ..testbed import FabricTestbed, Testbed
from .evidence import collect_evidence
from .invariants import check_all

#: Topologies the campaign understands.  "loopback" is the paper's
#: two-host private Ethernet segment; "dumbbell" routes every flow
#: through a switched bottleneck trunk (which is where the faults go).
TOPOLOGIES = ("loopback", "dumbbell")

#: Organization aliases: the paper's comparison is user-level library
#: vs. in-kernel monolithic; "monolithic" maps to the Ultrix profile.
ORGANIZATION_ALIASES = {"monolithic": "ultrix"}


@dataclass(frozen=True)
class CellSpec:
    """One deterministic chaos run: the replay token."""

    topology: str = "loopback"
    organization: str = "userlib"
    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_extra_delay: float = 0.0
    transfers: int = 2
    payload_bytes: int = 16_384
    chunk_size: int = 2048
    deadline: float = 60.0
    pairs: int = 2  # Dumbbell client/server pairs.
    red: bool = False  # RED (vs tail-drop) bottleneck queue.
    #: Conformant stacks use 3; the campaign's sabotage knob for proving
    #: the checkers catch a deliberately broken stack end-to-end.
    dup_ack_threshold: int = 3
    #: Congestion-control algorithm under test ("reno", "cubic", "bbr").
    cc: str = "reno"

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class CellResult:
    """One cell's verdict."""

    spec: CellSpec
    results: list  # CheckResult per invariant.
    completed_transfers: int = 0
    total_transfers: int = 0
    evidence: Optional[object] = None  # RunEvidence when kept.

    @property
    def violations(self) -> list:
        return [v for r in self.results for v in r.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "ok": self.ok,
            "completed_transfers": self.completed_transfers,
            "total_transfers": self.total_transfers,
            "checked": {r.invariant: r.checked for r in self.results},
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass
class CampaignReport:
    """Every cell of one campaign, JSON-serializable for replay."""

    cells: list = field(default_factory=list)  # CellResult

    @property
    def violations(self) -> list:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def failing_cells(self) -> list:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def ok(self) -> bool:
        return not self.failing_cells

    def as_dict(self) -> dict:
        return {
            "cells": [cell.as_dict() for cell in self.cells],
            "total_cells": len(self.cells),
            "failing_cells": len(self.failing_cells),
            "total_violations": len(self.violations),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)

    def summary(self) -> str:
        lines = [
            f"campaign: {len(self.cells)} cells, "
            f"{len(self.failing_cells)} failing, "
            f"{len(self.violations)} violation(s)"
        ]
        for index, cell in enumerate(self.cells):
            if cell.ok:
                continue
            spec = cell.spec
            lines.append(
                f"  cell {index}: {spec.topology}/{spec.organization} "
                f"cc={spec.cc} seed={spec.seed} drop={spec.drop_rate} "
                f"corrupt={spec.corrupt_rate} dup={spec.duplicate_rate} "
                f"delay={spec.max_extra_delay}"
            )
            for v in cell.violations:
                lines.append(f"    {v}")
        return "\n".join(lines)


def build_bed(spec: CellSpec):
    """Construct the testbed a spec describes (fresh simulator each time)."""
    organization = ORGANIZATION_ALIASES.get(
        spec.organization, spec.organization
    )
    faults = FaultInjector(
        drop_rate=spec.drop_rate,
        corrupt_rate=spec.corrupt_rate,
        duplicate_rate=spec.duplicate_rate,
        max_extra_delay=spec.max_extra_delay,
        seed=spec.seed,
    )
    config = TcpConfig(
        dup_ack_threshold=spec.dup_ack_threshold,
        cc=spec.cc,
    )
    if spec.topology == "loopback":
        return Testbed(
            network="ethernet",
            organization=organization,
            config=config,
            faults=faults,
        )
    if spec.topology == "dumbbell":
        return FabricTestbed(
            kind="dumbbell",
            organization=organization,
            config=config,
            faults=faults,
            pairs=spec.pairs,
            red=spec.red,
            red_seed=spec.seed,
        )
    raise ValueError(f"unknown topology {spec.topology!r}")


def run_cell(spec: CellSpec, keep_evidence: bool = False) -> CellResult:
    """Run one cell and judge it with every invariant."""
    bed = build_bed(spec)
    evidence = collect_evidence(
        bed,
        transfers=spec.transfers,
        payload_bytes=spec.payload_bytes,
        chunk_size=spec.chunk_size,
        seed=spec.seed,
        deadline=spec.deadline,
    )
    results = check_all(evidence)
    return CellResult(
        spec=spec,
        results=results,
        completed_transfers=sum(
            1 for t in evidence.transfers if t.complete
        ),
        total_transfers=len(evidence.transfers),
        evidence=evidence if keep_evidence else None,
    )


def grid_specs(
    topologies=TOPOLOGIES,
    organizations=("userlib", "ultrix"),
    drop_rates=(0.0, 0.01, 0.03),
    corrupt_rates=(0.0, 0.01, 0.03),
    duplicate_rates=(0.0, 0.02),
    delays=(0.0, 0.002),
    seed: int = 1,
    ccs=("reno",),
    **spec_overrides,
) -> list[CellSpec]:
    """The sweep: cc × topology × org × drop × corrupt × (duplicate, delay).

    Duplicate and delay rates zip with the (drop, corrupt) grid rather
    than multiplying it — each (drop, corrupt) cell alternates which
    duplicate/delay setting it gets, keeping the campaign a ≥3×3 grid
    per topology/org while still exercising all four fault axes.  Every
    spec gets a distinct deterministic seed derived from its position;
    the congestion-control axis multiplies the whole grid, and with the
    default single-algorithm tuple the seed sequence is identical to the
    pre-``ccs`` campaign (replay tokens stay valid).
    """
    specs = []
    for cc in ccs:
        for topology in topologies:
            for organization in organizations:
                index = 0
                for drop in drop_rates:
                    for corrupt in corrupt_rates:
                        duplicate = duplicate_rates[index % len(duplicate_rates)]
                        delay = delays[(index // len(duplicate_rates)) % len(delays)]
                        specs.append(
                            CellSpec(
                                topology=topology,
                                organization=organization,
                                seed=seed + 97 * len(specs),
                                drop_rate=drop,
                                corrupt_rate=corrupt,
                                duplicate_rate=duplicate,
                                max_extra_delay=delay,
                                cc=cc,
                                **spec_overrides,
                            )
                        )
                        index += 1
    return specs


def quick_specs(seed: int = 1, ccs=("reno",)) -> list[CellSpec]:
    """The CI smoke grid: both topologies and organizations, one benign
    and one adversarial cell each — seconds, not minutes."""
    return grid_specs(
        drop_rates=(0.0, 0.02),
        corrupt_rates=(0.01,),
        duplicate_rates=(0.02,),
        delays=(0.001,),
        seed=seed,
        ccs=ccs,
        transfers=1,
        payload_bytes=8192,
        deadline=30.0,
    )


def run_campaign(
    specs: list[CellSpec], progress=None, keep_evidence: bool = False
) -> CampaignReport:
    report = CampaignReport()
    for index, spec in enumerate(specs):
        result = run_cell(spec, keep_evidence=keep_evidence)
        report.cells.append(result)
        if progress is not None:
            status = "ok" if result.ok else (
                f"{len(result.violations)} VIOLATION(S)"
            )
            progress(
                f"[{index + 1}/{len(specs)}] {spec.topology}/"
                f"{spec.organization} cc={spec.cc} drop={spec.drop_rate} "
                f"corrupt={spec.corrupt_rate} dup={spec.duplicate_rate} "
                f"delay={spec.max_extra_delay} seed={spec.seed}: {status}"
            )
    return report


# ----------------------------------------------------------------------
# Replay & shrink
# ----------------------------------------------------------------------


def replay_cell(report: dict, cell_index: int, keep_evidence: bool = False):
    """Re-run one cell of a saved report, deterministically.

    ``report`` is the parsed JSON (``json.load``); the cell's spec dict
    is the replay tuple.  Returns the fresh :class:`CellResult` — for a
    genuine failure the same violations come back, every time.
    """
    spec = CellSpec.from_dict(report["cells"][cell_index]["spec"])
    return run_cell(spec, keep_evidence=keep_evidence)


@dataclass
class ShrinkResult:
    """Outcome of minimizing a failing spec."""

    original: CellSpec
    minimal: CellSpec
    steps: list = field(default_factory=list)  # (description, still_failing)
    trace_excerpt: list = field(default_factory=list)  # str lines
    violations: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "original": self.original.as_dict(),
            "minimal": self.minimal.as_dict(),
            "steps": list(self.steps),
            "violations": [v.as_dict() for v in self.violations],
            "trace_excerpt": list(self.trace_excerpt),
        }


def shrink_cell(
    spec: CellSpec,
    min_payload: int = 1024,
    min_rate: float = 0.005,
    context_records: int = 12,
) -> ShrinkResult:
    """Bisect a failing spec to the smallest configuration that still
    fails, then dump the decoded wire trace around the violation.

    Payload size is halved while the failure persists, then each
    non-zero fault rate is first zeroed (is it necessary at all?) and
    otherwise halved down to ``min_rate``.  Every candidate is a full
    deterministic re-run, so the result is exact, not probabilistic.
    """
    result = ShrinkResult(original=spec, minimal=spec)

    def fails(candidate: CellSpec):
        return run_cell(candidate)

    current = spec
    # 1. Shrink the payload.
    while current.payload_bytes // 2 >= min_payload:
        candidate = replace(
            current, payload_bytes=current.payload_bytes // 2
        )
        outcome = fails(candidate)
        result.steps.append(
            (f"payload {candidate.payload_bytes}", not outcome.ok)
        )
        if outcome.ok:
            break
        current = candidate
    # 2. Shrink each fault rate: drop it entirely if possible, else halve.
    for rate_field in (
        "drop_rate", "corrupt_rate", "duplicate_rate", "max_extra_delay"
    ):
        value = getattr(current, rate_field)
        if not value:
            continue
        candidate = replace(current, **{rate_field: 0.0})
        outcome = fails(candidate)
        result.steps.append((f"{rate_field}=0", not outcome.ok))
        if not outcome.ok:
            current = candidate
            continue
        while value / 2 >= min_rate:
            candidate = replace(current, **{rate_field: value / 2})
            outcome = fails(candidate)
            result.steps.append(
                (f"{rate_field}={value / 2:g}", not outcome.ok)
            )
            if outcome.ok:
                break
            value = value / 2
            current = candidate
    # 3. Final deterministic run of the minimal spec, with the trace.
    final = run_cell(current, keep_evidence=True)
    result.minimal = current
    result.violations = final.violations
    if final.violations and final.evidence is not None:
        records = final.evidence.trace_records
        timed = [v.time for v in final.violations if v.time > 0]
        first = min(timed) if timed else 0.0
        anchor = next(
            (i for i, r in enumerate(records) if r.time >= first),
            len(records) - 1,
        )
        lo = max(0, anchor - context_records)
        hi = min(len(records), anchor + context_records + 1)
        result.trace_excerpt = [str(r) for r in records[lo:hi]]
    return result
