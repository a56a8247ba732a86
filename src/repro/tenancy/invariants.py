"""Isolation invariants: machine-checkable tenancy properties.

Like the six conformance checkers in :mod:`repro.check.invariants`,
these consume *evidence* — per-tenant counters and facts, and the
measured victim goodput — and
return :class:`~repro.check.invariants.CheckResult` rows.  They only
read; the campaign's isolation axis (:mod:`repro.tenancy.campaign`)
drives the simulation and hands them the bundle, and a sabotaged stack
(the same adversaries with ``TenantManager.enforcing = False``) must
make at least one of them fire.

The four invariants:

``tenant-isolation``
    Tenant A's bytes never reach tenant B's channels: the module counts
    on the flow's tenant (``foreign_rx_frames``, ``foreign_rx_bytes``)
    each frame that landed in a channel whose *current* owner belongs
    to another tenant.  Blocked cross-tenant deliveries (``rx_dropped``)
    are evidence of enforcement working, not violations.
``tenant-goodput``
    Tenant A misbehaving (or merely being throttled) never costs tenant
    B its service: the victim's measured goodput stays within ε of its
    solo baseline on the identical testbed.
``tenant-grants``
    Every port a tenant holds at the end of the run — its channels'
    and its listeners' flows, read off the module's tables while the
    leases live — lies inside its grant set or is held by a live lease
    the registry minted it for: an out-of-grant bind that stuck is a
    forged capability.  The tables at the end are the evidence, not a
    history: a bind released before the deadline is not judged here.
``tenant-conservation``
    Budgets mean what they say: peak region attribution (channels'
    regions and unadopted AN1 rings) never exceeded quota, transmitted
    bytes conform to the token bucket (rate × duration + burst, with one
    frame of slack), and after teardown no tenant-attributed resource is
    still held (the leak-check sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check.invariants import CheckResult
from .tenant import TenantBudget

#: Victim goodput must stay within this fraction of its solo baseline.
GOODPUT_EPSILON = 0.10

#: Token-bucket conformance slack: one maximum-size frame may straddle
#: the measurement edge.
RATE_SLACK_BYTES = 1600


@dataclass(frozen=True)
class TenantSnapshot:
    """One tenant's end-of-run facts, detached from live objects."""

    tenant_id: str
    budget: TenantBudget  # Frozen: quotas, token bucket, port grant.
    ports: tuple  # (port, minted) per channel and listener, before teardown.
    counters: dict  # Tenant counter snapshot (peaks, tx/rx, refusals).
    leaks: dict  # Still held after teardown, by row; {} = clean.


@dataclass
class IsolationEvidence:
    """Everything the isolation checkers judge one campaign cell from."""

    adversary: str  # "none" | "forger" | "flooder" | "leaker" | "hoarder"
    victim: str  # The victim tenant id.
    duration: float  # Sim seconds the cell ran.
    victim_goodput: float  # bytes/sec achieved by the victim transfer.
    solo_goodput: float  # Same transfer with no adversary present.
    tenants: list = field(default_factory=list)  # TenantSnapshot rows.


# ----------------------------------------------------------------------
# 1. No cross-tenant delivery
# ----------------------------------------------------------------------


def check_isolation(evidence: IsolationEvidence) -> CheckResult:
    """Tenant A's bytes never *reach* tenant B's channels."""
    result = CheckResult("tenant-isolation", checked=len(evidence.tenants))
    for snapshot in evidence.tenants:
        frames = snapshot.counters.get("foreign_rx_frames", 0)
        if frames:
            result.fail(
                f"flow={snapshot.tenant_id}", evidence.duration,
                f"{snapshot.counters['foreign_rx_bytes']}B in {frames} frames"
                f" of tenant {snapshot.tenant_id}'s flows delivered to"
                " channels another tenant owns",
            )
    return result


# ----------------------------------------------------------------------
# 2. Victim goodput within ε of its solo baseline
# ----------------------------------------------------------------------


def check_goodput(
    evidence: IsolationEvidence, epsilon: float = GOODPUT_EPSILON
) -> CheckResult:
    """An adversary (or a throttled neighbour) cannot degrade the
    victim beyond measurement noise."""
    result = CheckResult("tenant-goodput", checked=0)
    if evidence.solo_goodput <= 0:
        return result  # No baseline: nothing to judge against.
    result.checked = 1
    floor = (1.0 - epsilon) * evidence.solo_goodput
    if evidence.victim_goodput < floor:
        result.fail(
            f"victim={evidence.victim} adversary={evidence.adversary}",
            evidence.duration,
            f"goodput {evidence.victim_goodput:.0f} B/s below"
            f" {floor:.0f} B/s ({(1 - epsilon):.0%} of solo baseline"
            f" {evidence.solo_goodput:.0f} B/s)",
        )
    return result


# ----------------------------------------------------------------------
# 3. Grants respected
# ----------------------------------------------------------------------


def check_grants(evidence: IsolationEvidence) -> CheckResult:
    """Every port a tenant holds at the end is inside its grant, or
    minted for it (a port bound and released earlier is not judged)."""
    result = CheckResult("tenant-grants", checked=0)
    for snapshot in evidence.tenants:
        for port, minted in snapshot.ports:
            result.checked += 1
            if not (minted or snapshot.budget.ports.allows(port)):
                result.fail(
                    f"tenant={snapshot.tenant_id}", 0.0,
                    f"bound port {port} outside grant"
                    f" {snapshot.budget.ports.ranges} (and not ephemeral)",
                )
    return result


# ----------------------------------------------------------------------
# 4. Quota / rate / leak conservation
# ----------------------------------------------------------------------


def check_conservation(evidence: IsolationEvidence) -> CheckResult:
    """Peaks never exceeded quota, tx conformed to the token bucket,
    and teardown left nothing attributed."""
    result = CheckResult("tenant-conservation", checked=0)

    def violate(snapshot, detail):
        result.fail(f"tenant={snapshot.tenant_id}", evidence.duration, detail)

    for snapshot in evidence.tenants:
        counters = snapshot.counters
        budget = snapshot.budget
        result.checked += 2
        peak_region = counters.get("peak_region_bytes", 0)
        if peak_region > budget.region_bytes:
            violate(
                snapshot,
                f"peak region attribution {peak_region}B exceeds quota"
                f" {budget.region_bytes}B",
            )
        if budget.tx_rate > 0:
            result.checked += 1
            allowed = (
                budget.tx_rate * evidence.duration
                + budget.tx_burst
                + RATE_SLACK_BYTES
            )
            tx = counters.get("tx_bytes", 0)
            if tx > allowed:
                violate(
                    snapshot,
                    f"transmitted {tx}B in {evidence.duration:.3f}s, over"
                    f" the token bucket's {allowed:.0f}B"
                    f" ({budget.tx_rate:.0f} B/s + {budget.tx_burst}B"
                    " burst)",
                )
        if snapshot.leaks:
            violate(
                snapshot,
                f"teardown left attributed resources: {snapshot.leaks}",
            )
    return result


#: The checkers in reporting order.
ALL_CHECKS = (
    check_isolation,
    check_goodput,
    check_grants,
    check_conservation,
)


def run_checks(evidence: IsolationEvidence) -> list:
    """All four verdicts for one cell."""
    return [check(evidence) for check in ALL_CHECKS]
