"""Multi-tenant sharing of one fabric: N tenants x M flows each.

The tentpole claim: tenancy enforcement (budget admission, template
vetting, per-send token-bucket gates, delivery ownership checks) rides
the trusted layers *without* slowing the data path.  Every check is an
O(1) table consultation at a trap the module already takes, so the
simulated outcome of a tenanted run must be byte-identical to the
untenanted run — the enforcement overhead is pure bookkeeping wall
time, reported here and guarded in CI.

Workload: a dumbbell fabric; flow ``i`` belongs to tenant ``i % N``,
every flow crossing the one shared trunk.  Reported per arm:

- aggregate goodput over the shared bottleneck,
- Jain fairness across *tenants* (per-tenant summed goodput — the
  quota machinery must not starve anyone),
- wall-clock enforcement overhead (tenanted / untenanted),
- per-tenant occupancy profile and the teardown leak sweep.

``--quick`` is the CI smoke: it also compares aggregate goodput and
tenant fairness against ``baselines/tenancy_quick.json`` so an
enforcement hot path that starts costing simulated time (or a quota
bug that starves a tenant) fails the build.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.metrics import jain_fairness, measure_fabric_transfers
from repro.netstat import tenant_table
from repro.tenancy import PortGrant, TenantBudget, attach_tenancy
from repro.testbed import FabricTestbed

N_TENANTS = 3
FLOWS_PER_TENANT = 2
QUICK_TENANTS = 2
BASE_PORT = 5000
FULL_BYTES = 150_000
QUICK_BYTES = 60_000

#: The tenanted arm's simulated goodput may deviate from untenanted by
#: at most this relative amount (the checks charge no simulated CPU, so
#: any drift means enforcement leaked into the data path).
MAX_SIM_DRIFT = 1e-9

BASELINE_PATH = Path(__file__).parent / "baselines" / "tenancy_quick.json"
#: Regression guards against the recorded quick baseline.
GOODPUT_SLACK = 1.25  # May not fall below recorded/1.25.
FAIRNESS_FLOOR_DELTA = 0.05  # May not fall more than this below recorded.


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
                    max_templates=2 * flows_per_tenant + 2,
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
    wall0 = time.perf_counter()
    result = measure_fabric_transfers(fabric, bytes_per_flow=bytes_per_flow)
    wall = time.perf_counter() - wall0

    per_tenant = [0.0] * tenants
    for i, flow in enumerate(result.flows):
        per_tenant[i % tenants] += flow.throughput_mbps

    arm = {
        "tenanted": tenanted,
        "aggregate_mbps": result.aggregate_mbps,
        "flow_fairness": result.fairness,
        "tenant_fairness": jain_fairness(per_tenant),
        "per_tenant_mbps": per_tenant,
        "wall_seconds": wall,
        "bottleneck_drops": result.bottleneck_drops,
    }
    if manager is not None:
        arm["profiles"] = [asdict(row) for row in tenant_table(fabric)]
        arm["leaks"] = {
            t.tenant_id: leaks
            for t in manager
            if (leaks := t.teardown())
        }
    return arm


def run_comparison(tenants: int, flows_per_tenant: int,
                   bytes_per_flow: int) -> dict:
    untenanted = run_arm(tenants, flows_per_tenant, bytes_per_flow, False)
    tenanted = run_arm(tenants, flows_per_tenant, bytes_per_flow, True)
    overhead = (
        tenanted["wall_seconds"] / untenanted["wall_seconds"]
        if untenanted["wall_seconds"]
        else float("inf")
    )
    return {
        "tenants": tenants,
        "flows_per_tenant": flows_per_tenant,
        "bytes_per_flow": bytes_per_flow,
        "untenanted": untenanted,
        "tenanted": tenanted,
        "wall_overhead": overhead,
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


def check_baseline(tenanted: dict) -> str:
    if not BASELINE_PATH.exists():
        return "baseline: none recorded (run --update-baseline)"
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["aggregate_mbps"] / GOODPUT_SLACK
    assert tenanted["aggregate_mbps"] >= floor, (
        f"tenanted goodput regression: {tenanted['aggregate_mbps']:.3f} "
        f"Mb/s < floor {floor:.3f} (recorded {baseline['aggregate_mbps']:.3f})"
    )
    fairness_floor = baseline["tenant_fairness"] - FAIRNESS_FLOOR_DELTA
    assert tenanted["tenant_fairness"] >= fairness_floor, (
        f"tenant fairness regression: {tenanted['tenant_fairness']:.3f} < "
        f"floor {fairness_floor:.3f}"
    )
    return (
        f"baseline: {tenanted['aggregate_mbps']:.3f} Mb/s vs recorded "
        f"{baseline['aggregate_mbps']:.3f} (floor {floor:.3f}), "
        f"fairness {tenanted['tenant_fairness']:.3f} ok"
    )


def _print_arm(label: str, arm: dict) -> None:
    per_tenant = "  ".join(f"{g:.2f}" for g in arm["per_tenant_mbps"])
    print(
        f"{label:11s} aggregate {arm['aggregate_mbps']:6.2f} Mb/s  "
        f"tenant-fairness {arm['tenant_fairness']:.3f}  "
        f"per-tenant [{per_tenant}]  wall {arm['wall_seconds']:.2f}s"
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_tenancy_overhead_and_fairness(benchmark, report):
    comparison = benchmark.pedantic(
        run_comparison,
        args=(QUICK_TENANTS, FLOWS_PER_TENANT, QUICK_BYTES),
        rounds=1,
        iterations=1,
    )
    check_comparison(comparison)
    report(
        "Multi-tenant fabric",
        "tenant Jain fairness",
        comparison["tenanted"]["tenant_fairness"],
        0.9,
        "",
    )
    report(
        "Multi-tenant fabric",
        "simulated goodput drift under enforcement",
        abs(
            comparison["tenanted"]["aggregate_mbps"]
            - comparison["untenanted"]["aggregate_mbps"]
        ),
        0.0,
        "Mb/s",
    )


# ----------------------------------------------------------------------
# Standalone / CI entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="N tenants x M flows through the dumbbell: goodput, "
        "fairness, enforcement overhead"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: fewer tenants, shorter flows, baseline guard",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the quick tenanted arm as the new baseline",
    )
    args = parser.parse_args(argv)

    quick = args.quick or args.update_baseline
    tenants = QUICK_TENANTS if quick else N_TENANTS
    bytes_per_flow = QUICK_BYTES if quick else FULL_BYTES
    comparison = run_comparison(tenants, FLOWS_PER_TENANT, bytes_per_flow)

    print(
        f"workload: dumbbell, {tenants} tenants x {FLOWS_PER_TENANT} flows, "
        f"{bytes_per_flow} bytes/flow"
    )
    _print_arm("untenanted", comparison["untenanted"])
    _print_arm("tenanted", comparison["tenanted"])
    print(
        f"enforcement wall overhead {comparison['wall_overhead']:.2f}x  "
        f"(simulated outcome identical by construction check)"
    )
    check_comparison(comparison)

    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "tenants": tenants,
                    "flows_per_tenant": FLOWS_PER_TENANT,
                    "bytes_per_flow": bytes_per_flow,
                    "aggregate_mbps": comparison["tenanted"]["aggregate_mbps"],
                    "tenant_fairness": comparison["tenanted"][
                        "tenant_fairness"
                    ],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline recorded to {BASELINE_PATH}")
    elif args.quick:
        print(check_baseline(comparison["tenanted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
