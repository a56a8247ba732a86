#!/usr/bin/env python3
"""Many user-level TCP stacks sharing one bottleneck.

The paper measured its user-level TCP between two hosts on a private
segment.  Here the same stacks meet real contention: N client/server
pairs on 100 Mb/s edges, joined by a single 10 Mb/s trunk whose finite
egress queue is the only place loss can happen.  Each client streams
concurrently to its server; congestion control at every sender probes
the shared queue, drops cut their windows, and the trunk's bandwidth
gets divided — how evenly is the Jain fairness index.

Run:  python examples/dumbbell_fairness.py [pairs]
"""

import sys

from repro import netstat
from repro.metrics import measure_fabric_transfers
from repro.testbed import FabricTestbed


def main() -> None:
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    fabric = FabricTestbed(kind="dumbbell", pairs=pairs)
    trunk_mbps = fabric.topology.meta["bottleneck_rate"] / 1e6
    print(
        f"{pairs} flows x 200 KB through a {trunk_mbps:.0f} Mb/s trunk "
        f"({fabric.topology.meta['queue_bytes'] // 1024} KB queue, tail-drop)\n"
    )

    result = measure_fabric_transfers(fabric, bytes_per_flow=200_000)

    for flow in result.flows:
        bar = "#" * round(flow.throughput_mbps * 10)
        print(
            f"  flow {flow.index:2d}  {flow.throughput_mbps:5.2f} Mb/s  {bar}"
        )
    print(
        f"\naggregate {result.aggregate_mbps:.2f} / {trunk_mbps:.0f} Mb/s"
        f"  ({result.aggregate_mbps / trunk_mbps:.0%} of the trunk)"
    )
    print(f"Jain fairness {result.fairness:.3f}")
    print(
        f"drops: {result.bottleneck_drops} at the bottleneck, "
        f"{result.other_drops} anywhere else"
    )

    # The trunk's queue is the only place loss happens, and it is shared.
    assert result.bottleneck_drops and not result.other_drops
    assert result.aggregate_mbps <= trunk_mbps and result.fairness > 0.5

    print("\n--- netstat: switch ports ---")
    for entry in netstat.switch_table(fabric):
        print(entry)


if __name__ == "__main__":
    main()
