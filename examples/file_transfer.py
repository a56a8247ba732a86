#!/usr/bin/env python3
"""Bulk file transfer across every protocol organization — a miniature
of the paper's Table 2.

Transfers one "file" over TCP under each organization and network and
prints the throughput plus the address-space crossings that explain it.

Run:  python examples/file_transfer.py [--bytes 400000] [--chunk 4096]
"""

import argparse

from repro.metrics import measure_throughput
from repro.testbed import ORGANIZATIONS, Testbed

DESCRIPTIONS = {
    "ultrix": "monolithic in-kernel (Ultrix-style)",
    "mach-ux": "single trusted server, mapped device (Mach/UX-style)",
    "mach-ux-unmapped": "single server, in-kernel device via messages",
    "dedicated": "dedicated protocol + device servers (the rare case)",
    "userlib": "user-level protocol library (the paper's proposal)",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=400_000)
    parser.add_argument("--chunk", type=int, default=4096)
    args = parser.parse_args()

    mbps = {}
    for network in ("ethernet", "an1"):
        label = "10 Mb/s Ethernet" if network == "ethernet" else "100 Mb/s AN1"
        print(f"\n=== {label}, {args.bytes} bytes in {args.chunk}-byte writes ===")
        for organization in ORGANIZATIONS:
            testbed = Testbed(network=network, organization=organization)
            result = measure_throughput(
                testbed, total_bytes=args.bytes, chunk_size=args.chunk
            )
            mbps[network, organization] = result.throughput_mbps
            counters = testbed.host_a.kernel.counters
            crossings = (
                f"ipc={counters.get('ipc_messages', 0):4d} "
                f"traps={counters.get('traps', 0):4d} "
                f"fast-traps={counters.get('fast_traps', 0):4d}"
            )
            print(
                f"  {organization:18s} {result.throughput_mbps:6.2f} Mb/s"
                f"   [{crossings}]  {DESCRIPTIONS[organization]}"
            )
        # Table 2's shape: the library beats every server organization
        # and trails only the in-kernel stack.
        ranked = sorted(ORGANIZATIONS, key=lambda org: -mbps[network, org])
        assert ranked[:2] == ["ultrix", "userlib"], ranked


if __name__ == "__main__":
    main()
