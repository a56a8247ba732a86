"""One campaign engine: every axis's cells are run, judged, reported,
replayed and shrunk the same way.

A **cell** is one fully specified run, captured in a frozen
:class:`Spec` that is also its replay token: every source of randomness
is seeded from the spec and the simulator is deterministic, so
re-running a spec reproduces the run bit-for-bit.  An :class:`Axis`
says how its spec becomes a bed, the bed evidence and the evidence a
list of :class:`~repro.check.invariants.CheckResult`; the engine does
the rest alike for every axis.  A report records each cell's spec
beside its verdicts, so :func:`replay_cell` brings any cell back from
the report alone, and :func:`shrink_cell` halves the fields an axis
names while the cell still fails, dumping the decoded wire trace around
the violation where the axis keeps one.

Three axes plug in:

``chaos`` (this module)
    seeded drop × corrupt × duplicate × delay × cc grids over two
    topologies and both protocol organizations, judged by the seven
    conformance invariants;
``isolation`` (:mod:`repro.tenancy.campaign`)
    one adversarial tenant beside a victim, enforced and sabotaged,
    judged by the four isolation invariants — a sabotaged cell passes by
    being convicted;
``failure`` (:mod:`repro.check.failure`)
    an operation stopped at every point the registry's §3 contract
    covers, judged by "nothing held".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Optional

from ..net.faults import FaultInjector
from ..protocols.tcp import TcpConfig
from ..testbed import FabricTestbed, Testbed
from .evidence import collect_evidence
from .invariants import check_all


class Spec:
    """Base of every axis's frozen spec dataclass: the replay token.

    A subclass also names itself in reports and progress with ``label``.
    """

    #: Whether a conformant stack leaves the cell without violations;
    #: only a sabotaged isolation cell expects a conviction.
    expect_ok = True

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Read a report's spec back; keys from a newer format are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class CellResult:
    """One cell's verdicts, and what its axis measured beside them."""

    spec: Spec
    results: list  # CheckResult per invariant.
    facts: dict = field(default_factory=dict)  # Recorded in the cell dict.
    evidence: Optional[object] = None  # Kept only when asked for.

    @property
    def violations(self) -> list:
        return [v for r in self.results for v in r.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def passed(self) -> bool:
        """The verdict is the one the spec expects."""
        return self.ok == self.spec.expect_ok

    def status(self) -> str:
        if self.spec.expect_ok:
            return "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        fired = sorted({v.invariant for v in self.violations})
        return f"convicted by {', '.join(fired)}" if fired else "MISSED: no invariant fired"

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "ok": self.ok,
            **self.facts,
            "checked": {r.invariant: r.checked for r in self.results},
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass
class CampaignReport:
    """Every cell of one campaign on one axis, JSON-serializable for replay."""

    axis: str
    cells: list = field(default_factory=list)  # CellResult

    @property
    def violations(self) -> list:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def failing_cells(self) -> list:
        return [cell for cell in self.cells if not cell.passed]

    @property
    def ok(self) -> bool:
        return not self.failing_cells

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "ok": self.ok,
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
            f"{self.axis} campaign: {len(self.cells)} cells, "
            f"{len(self.failing_cells)} failing, "
            f"{len(self.violations)} violation(s)"
        ]
        for index, cell in enumerate(self.cells):
            if not cell.passed:
                lines.append(f"  cell {index}: {cell.spec.label}: {cell.status()}")
                lines.extend(f"    {v}" for v in cell.violations)
        return "\n".join(lines)


@dataclass(frozen=True)
class Axis:
    """One family of cells the engine runs."""

    name: str
    spec: type  # The Spec subclass a report's cells are read back as.
    run: Callable  # (spec, keep_evidence=False) -> CellResult
    plan: Callable  # (quick, **options) -> [spec]: the grid `run` sweeps.
    #: (field, floor) pairs shrink_cell halves, in order; with none it replays.
    shrink: tuple = ()


def run_campaign(axis: Axis, specs: list, progress=None) -> CampaignReport:
    report = CampaignReport(axis.name)
    for index, spec in enumerate(specs, 1):
        cell = axis.run(spec)
        report.cells.append(cell)
        if progress is not None:
            progress(f"[{index}/{len(specs)}] {spec.label}: {cell.status()}")
    return report


def replay_cell(axis: Axis, cell: dict) -> CellResult:
    """Re-run one recorded cell (a report's ``cells[i]``) from its spec.

    For a deterministic run the fresh ``as_dict()`` equals ``cell``.
    """
    return axis.run(axis.spec.from_dict(cell["spec"]))


@dataclass
class ShrinkResult:
    """Outcome of minimizing a failing spec."""

    original: Spec
    minimal: Spec
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


def shrink_cell(axis: Axis, spec: Spec, context_records: int = 12) -> ShrinkResult:
    """Halve each field the axis names, in order, while the cell still
    fails, then replay the minimal spec and dump the decoded wire trace
    around the first violation.

    A rate (a float field) is first zeroed — is it necessary at all? —
    and otherwise halved down to its floor; a size is halved down to its
    floor.  Every candidate is a full deterministic re-run, so the result
    is exact, not probabilistic.
    """
    result = ShrinkResult(original=spec, minimal=spec)

    def still_fails(candidate: Spec, description: str) -> bool:
        failing = not axis.run(candidate).ok
        result.steps.append((description, failing))
        return failing

    current = spec
    for name, floor in axis.shrink:
        value = getattr(current, name)
        if isinstance(value, float) and value:
            candidate = replace(current, **{name: 0.0})
            if still_fails(candidate, f"{name}=0"):
                current = candidate
                continue
        while value:
            half = value // 2 if isinstance(value, int) else value / 2
            if half < floor:
                break
            candidate = replace(current, **{name: half})
            if not still_fails(candidate, f"{name}={half:g}"):
                break
            value, current = half, candidate
    final = axis.run(current, keep_evidence=True)
    result.minimal = current
    result.violations = final.violations
    # Only the chaos axis's evidence carries a wire trace.
    records = getattr(final.evidence, "trace_records", None)
    if final.violations and records:
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


# ----------------------------------------------------------------------
# The chaos axis
# ----------------------------------------------------------------------

#: Topologies the campaign understands.  "loopback" is the paper's
#: two-host private Ethernet segment; "dumbbell" routes every flow
#: through a switched bottleneck trunk (which is where the faults go).
TOPOLOGIES = ("loopback", "dumbbell")


@dataclass(frozen=True)
class CellSpec(Spec):
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

    @property
    def label(self) -> str:
        return (
            f"{self.topology}/{self.organization} cc={self.cc} seed={self.seed} "
            f"drop={self.drop_rate} corrupt={self.corrupt_rate} "
            f"dup={self.duplicate_rate} delay={self.max_extra_delay}"
        )


def build_bed(spec: CellSpec):
    """Construct the testbed a spec describes (fresh simulator each time)."""
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
            organization=spec.organization,
            config=config,
            faults=faults,
        )
    if spec.topology == "dumbbell":
        return FabricTestbed(
            kind="dumbbell",
            organization=spec.organization,
            config=config,
            faults=faults,
            pairs=spec.pairs,
            red=spec.red,
            red_seed=spec.seed,
        )
    raise ValueError(f"unknown topology {spec.topology!r}")


def cell_evidence(spec: CellSpec):
    """Run the spec's transfers on its bed: the cell's RunEvidence."""
    return collect_evidence(
        build_bed(spec),
        transfers=spec.transfers,
        payload_bytes=spec.payload_bytes,
        chunk_size=spec.chunk_size,
        seed=spec.seed,
        deadline=spec.deadline,
    )


def run_cell(spec: CellSpec, keep_evidence: bool = False) -> CellResult:
    """Run one cell and judge it with every invariant."""
    evidence = cell_evidence(spec)
    return CellResult(
        spec,
        check_all(evidence),
        {
            "completed_transfers": sum(1 for t in evidence.transfers if t.complete),
            "total_transfers": len(evidence.transfers),
        },
        evidence if keep_evidence else None,
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


def chaos_specs(quick: bool = False, seed: int = 1, ccs=("reno",)) -> list[CellSpec]:
    return (quick_specs if quick else grid_specs)(seed=seed, ccs=ccs)


CHAOS = Axis(
    "chaos",
    CellSpec,
    run_cell,
    chaos_specs,
    shrink=(
        ("payload_bytes", 1024),
        ("drop_rate", 0.005),
        ("corrupt_rate", 0.005),
        ("duplicate_rate", 0.005),
        ("max_extra_delay", 0.005),
    ),
)
