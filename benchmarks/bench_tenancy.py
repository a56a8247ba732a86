"""Multi-tenant sharing of one fabric: N tenants x M flows each.

The tentpole claim: tenancy enforcement (budget admission, template
vetting, per-send token-bucket gates, delivery ownership checks) rides
the trusted layers *without* slowing the data path.  Every check is an
O(1) table consultation at a trap the module already takes, so the
simulated outcome of a tenanted run must be identical to the
untenanted run.  (What enforcement costs the host is bookkeeping wall
time — a speed, which no bench gates: DESIGN.md "Gates".)

Workload: a dumbbell fabric; flow ``i`` belongs to tenant ``i % N``,
every flow crossing the one shared trunk.  Asserted per arm:

- the tenanted arm's aggregate goodput equals the untenanted arm's (an
  enforcement hot path that starts costing simulated time fails here),
- Jain fairness across *tenants* (per-tenant summed goodput — the
  quota machinery must not starve anyone),
- no rejection in any tenant's profile and an empty teardown leak sweep.
"""

from dataclasses import asdict

import pytest

from repro.metrics import jain_fairness, measure_fabric_transfers
from repro.netstat import held, tenant_table
from repro.tenancy import PortGrant, TenantBudget, attach_tenancy
from repro.testbed import FabricTestbed

FLOWS_PER_TENANT = 2
BASE_PORT = 5000

#: The tenanted arm's simulated goodput may deviate from untenanted by
#: at most this relative amount (the checks charge no simulated CPU, so
#: any drift means enforcement leaked into the data path).
MAX_SIM_DRIFT = 1e-9
MIN_TENANT_FAIRNESS = 0.9


def build_fabric(tenants: int, flows_per_tenant: int, tenanted: bool):
    """A dumbbell with one client/server pair per flow; flow ``i``
    belongs to tenant ``i % tenants``."""
    pairs = tenants * flows_per_tenant
    fabric = FabricTestbed(kind="dumbbell", pairs=pairs)
    manager = None
    if tenanted:
        manager = attach_tenancy(fabric)
        per_tenant_ports = {t: [] for t in range(tenants)}
        for i in range(pairs):
            per_tenant_ports[i % tenants].append(BASE_PORT + i)
        for t in range(tenants):
            tenant = manager.create_tenant(
                f"tenant-{t}",
                TenantBudget(
                    # Client + server channel per flow, plus headroom
                    # for the handshake-time pre-allocations.
                    region_bytes=(2 * flows_per_tenant + 1) * 64 * 1024,
                    max_channels=2 * flows_per_tenant + 2,
                    ports=PortGrant.of(*per_tenant_ports[t]),
                ),
            )
            for i in range(pairs):
                if i % tenants == t:
                    manager.bind_task(fabric.client_services[i].app, tenant)
                    manager.bind_task(fabric.server_services[i].app, tenant)
    return fabric, manager


def run_arm(tenants: int, flows_per_tenant: int, bytes_per_flow: int,
            tenanted: bool) -> dict:
    fabric, manager = build_fabric(tenants, flows_per_tenant, tenanted)
    result = measure_fabric_transfers(fabric, bytes_per_flow=bytes_per_flow)

    per_tenant = [0.0] * tenants
    for i, flow in enumerate(result.flows):
        per_tenant[i % tenants] += flow.throughput_mbps

    arm = {
        "tenanted": tenanted,
        "aggregate_mbps": result.aggregate_mbps,
        "flow_fairness": result.fairness,
        "tenant_fairness": jain_fairness(per_tenant),
        "per_tenant_mbps": per_tenant,
        "bottleneck_drops": result.bottleneck_drops,
    }
    if manager is not None:
        arm["profiles"] = [asdict(row) for row in tenant_table(fabric)]
        for t in manager:
            t.teardown()
        arm["leaks"] = {
            t.tenant_id: rows
            for t in manager
            if (rows := [row for row in held(fabric, t.tenant_id) if row[2]])
        }
    return arm


def run_comparison(tenants: int, flows_per_tenant: int,
                   bytes_per_flow: int) -> dict:
    return {
        "untenanted": run_arm(tenants, flows_per_tenant, bytes_per_flow, False),
        "tenanted": run_arm(tenants, flows_per_tenant, bytes_per_flow, True),
    }


def check_comparison(comparison: dict) -> None:
    untenanted, tenanted = comparison["untenanted"], comparison["tenanted"]
    # Enforcement is observability + refusal logic only: with every
    # admission passing, the simulated transfer must be unchanged.
    drift = abs(tenanted["aggregate_mbps"] - untenanted["aggregate_mbps"])
    assert drift <= MAX_SIM_DRIFT * max(untenanted["aggregate_mbps"], 1.0), (
        f"enforcement changed the simulated outcome: "
        f"{tenanted['aggregate_mbps']:.6f} vs "
        f"{untenanted['aggregate_mbps']:.6f} Mb/s"
    )
    # No tenant was refused anything (budgets were provisioned to fit)
    # and nothing leaked through the teardown sweep.
    for profile in tenanted["profiles"]:
        assert profile["rejections"] == 0, profile
    assert tenanted["leaks"] == {}, tenanted["leaks"]


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "tenants, bytes_per_flow",
    [(2, 60_000), (3, 150_000)],
    ids=["2x60KB", "3x150KB"],
)
def test_tenancy_overhead_and_fairness(tenants, bytes_per_flow, benchmark):
    comparison = benchmark.pedantic(
        run_comparison,
        args=(tenants, FLOWS_PER_TENANT, bytes_per_flow),
        rounds=1,
        iterations=1,
    )
    check_comparison(comparison)
    fairness = comparison["tenanted"]["tenant_fairness"]
    assert fairness >= MIN_TENANT_FAIRNESS, comparison["tenanted"]
