"""Figure 1: alternative organizations of protocols, quantified.

The paper's Figure 1 is a taxonomy diagram: in-kernel monolithic,
single-server monolithic (Mach/UX, mapped or unmapped device),
dedicated-servers, and the proposed user-level library.  We make it a
measurement: the same TCP workload runs under all five organizations and
we report throughput plus the structural counters (traps, IPC messages,
context switches) that explain the differences — the address-space
crossings per kilobyte ARE the figure.
"""

from repro.metrics import measure_throughput
from repro.testbed import ORGANIZATIONS, Testbed

KB = 400  # Transfer size in KB for the comparison.


def run_all_organizations() -> dict:
    out = {}
    for org in ORGANIZATIONS:
        testbed = Testbed(network="ethernet", organization=org)
        result = measure_throughput(
            testbed, total_bytes=KB * 1024, chunk_size=4096
        )
        counters_a = dict(testbed.host_a.kernel.counters)
        counters_b = dict(testbed.host_b.kernel.counters)
        out[org] = {
            "throughput": result.throughput_mbps,
            "ipc_per_kb": (
                counters_a.get("ipc_messages", 0)
                + counters_b.get("ipc_messages", 0)
            ) / KB,
            "traps_per_kb": (
                counters_a.get("traps", 0) + counters_b.get("traps", 0)
            ) / KB,
            "fast_traps_per_kb": (
                counters_a.get("fast_traps", 0)
                + counters_b.get("fast_traps", 0)
            ) / KB,
        }
    return out


def test_figure1_organization_taxonomy(benchmark):
    results = benchmark.pedantic(run_all_organizations, rounds=1, iterations=1)

    # The 'rare case' dedicated-servers organization loses on the common
    # path: every packet crosses extra address spaces.
    dedicated = results["dedicated"]["throughput"]
    for org in ("ultrix", "mach-ux", "userlib"):
        assert dedicated < results[org]["throughput"]

    # Paper §1.2: the message-based (unmapped-device) single-server
    # variant performs worse than the mapped one.
    assert (
        results["mach-ux-unmapped"]["throughput"]
        < results["mach-ux"]["throughput"]
    )

    # The library organization beats every server-based organization.
    for org in ("mach-ux", "mach-ux-unmapped", "dedicated"):
        assert results["userlib"]["throughput"] > results[org]["throughput"]

    # Structural counters: server organizations live on IPC; the library
    # uses the specialized trap; the kernel organization uses plain
    # traps and nothing else.
    assert results["mach-ux"]["ipc_per_kb"] > 0.5
    assert (
        results["dedicated"]["ipc_per_kb"]
        > results["mach-ux"]["ipc_per_kb"] * 1.5
    )
    assert results["userlib"]["fast_traps_per_kb"] > 0.2
    assert results["userlib"]["ipc_per_kb"] < 0.1  # Setup only.
    assert results["ultrix"]["ipc_per_kb"] == 0
    assert results["ultrix"]["fast_traps_per_kb"] == 0
